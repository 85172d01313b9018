(* Fleet-scale Monte-Carlo path sweep (DESIGN.md §16): the Fig. 18/19
   population from Path_model run at 10^4+ paths × a protocol matrix,
   sharded over the profile's domain pool and hardened end-to-end:

   - checkpoint/resume: each completed shard is appended to a versioned,
     per-line checksummed checkpoint file, so a sweep killed at any point
     restarts from its last completed shard and produces a
     byte-identical final table to an uninterrupted run, at any --jobs;
   - watchdog + retry: each case gets a wall-clock budget (polled once per
     simulated second — cooperative, there is no safe cross-domain
     preemption) and crashes/timeouts are retried at once on rekeyed seeds
     before being recorded as typed failure cells, never aborting the
     sweep;
   - streaming aggregation: P² quantile estimators and Welford accumulators
     (lib/dsp Stats) fed in deterministic shard order, so aggregator memory
     is O(1) in path count — no per-path row is ever materialized;
   - auto-triage: the worst-k outlier paths are re-run with tracing and the
     invariant monitor enabled and their traces archived.

   Everything printed into the result tables is derived from checkpoint
   cells alone; wall-clock progress goes through [sw_log] (stderr in the
   CLI) so stdout diffs cleanly across interrupted/resumed runs. *)

module Stats = Nimbus_dsp.Stats
module Event = Nimbus_trace.Event
module Trace = Nimbus_trace.Trace

exception Case_timeout

type output_error =
  | Checkpoint_incompatible of string
  | Checkpoint_incomplete of string
  | Unwritable of string

exception Output_error of output_error

let fail e = raise (Output_error e)

(* checkpoint and triage file I/O: a path that cannot be read or written is
   a typed error, never a stray Sys_error *)
let io f =
  try f ()
  with Sys_error msg -> fail (Unwritable ("sweep output: " ^ msg))

type failure =
  | F_timeout of int (* attempts consumed *)
  | F_crash of int

type cell = (float * float, failure) result (* tput bps, mean rtt secs *)

type config = {
  sw_paths : int;
  sw_seed : int;
  sw_schemes : Common.scheme list;
  sw_profile : Common.profile;
  sw_shard : int;
  sw_budget : float; (* wall secs per case attempt; <= 0 disables *)
  sw_retries : int; (* retries after the first attempt *)
  sw_checkpoint : string option;
  sw_resume : bool;
  sw_stop_after : int option; (* stop once this many shards are done *)
  sw_triage_k : int;
  sw_triage_dir : string option;
  sw_triage_only : bool; (* skip the shards: triage from the checkpoint *)
  sw_clock : unit -> float; (* wall clock for the watchdog *)
  sw_log : string -> unit; (* progress; never part of the tables *)
}

let default_schemes () =
  [ Common.nimbus ~estimate_mu:true (); Common.cubic; Common.bbr;
    Common.vegas ]

let scheme_of_name name =
  match name with
  | "nimbus" -> Some (Common.nimbus ~estimate_mu:true ())
  | "nimbus-delay" -> Some Common.nimbus_delay_only
  | "cubic" -> Some Common.cubic
  | "reno" -> Some Common.reno
  | "vegas" -> Some Common.vegas
  | "copa" -> Some Common.copa
  | "bbr" -> Some Common.bbr
  | "vivace" -> Some Common.vivace
  | "compound" -> Some Common.compound
  | _ -> None

let config ?(paths = 100) ?(seed = 1819) ?schemes ?(profile = Common.quick)
    ?(shard_size = 32) ?(budget = 0.) ?(retries = 2) ?checkpoint
    ?(resume = false) ?stop_after ?(triage_k = 0) ?triage_dir
    ?(triage_only = false) ?(clock = Unix.gettimeofday) ?(log = fun _ -> ())
    () =
  if paths < 1 then invalid_arg "Sweep.config: paths must be >= 1";
  if shard_size < 1 then invalid_arg "Sweep.config: shard_size must be >= 1";
  if retries < 0 then invalid_arg "Sweep.config: retries must be >= 0";
  if not (Float.is_finite budget && budget >= 0.) then
    invalid_arg
      (Printf.sprintf "Sweep.config: budget must be finite and >= 0 (got %g)"
         budget);
  (match stop_after with
   | Some n when n < 0 -> invalid_arg "Sweep.config: stop_after must be >= 0"
   | _ -> ());
  if triage_k < 0 then invalid_arg "Sweep.config: triage_k must be >= 0";
  let schemes = match schemes with Some s -> s | None -> default_schemes () in
  if schemes = [] then invalid_arg "Sweep.config: no schemes";
  if triage_only && checkpoint = None then
    invalid_arg "Sweep.config: --triage-only requires --checkpoint";
  if triage_only && triage_k < 1 then
    invalid_arg "Sweep.config: --triage-only requires --triage-k >= 1";
  { sw_paths = paths; sw_seed = seed; sw_schemes = schemes;
    sw_profile = profile; sw_shard = shard_size; sw_budget = budget;
    sw_retries = retries; sw_checkpoint = checkpoint;
    (* triage-only must never truncate the checkpoint it feeds on *)
    sw_resume = resume || triage_only; sw_stop_after = stop_after;
    sw_triage_k = triage_k; sw_triage_dir = triage_dir;
    sw_triage_only = triage_only; sw_clock = clock; sw_log = log }

(* --- checkpoint format -----------------------------------------------------

   Line-oriented text, one header plus one line per completed shard:

     NIMSWP01 paths=N seed=N shard=N scale=F seeds=N budget=F retries=N schemes=a,b,c
     S <idx> <base> <ncells> <cell>... #<fnv64-hex>

   Cells are path-major ("o:<tput>:<rtt>", "t:<attempts>", "c:<attempts>"),
   floats printed with the trace layer's shortest-round-trip formatter so a
   resumed aggregation folds bit-identical values.  Every shard line carries
   an FNV-1a checksum of its body; a torn or corrupted line (and everything
   after it) is dropped on resume, and the file is rewritten to its validated
   prefix through tmp-write+rename.  A live shard's line is appended and
   flushed, so a crash can at worst tear the last line, which resume drops. *)

let magic = "NIMSWP01"

let header_line cfg =
  Printf.sprintf "%s paths=%d seed=%d shard=%d scale=%s seeds=%d budget=%s \
                  retries=%d schemes=%s"
    magic cfg.sw_paths cfg.sw_seed cfg.sw_shard
    (Event.float_str cfg.sw_profile.Common.time_scale)
    cfg.sw_profile.Common.seeds
    (Event.float_str cfg.sw_budget)
    cfg.sw_retries
    (String.concat "," (List.map (fun s -> s.Common.scheme_name) cfg.sw_schemes))

let fnv64 s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c)))
             0x100000001b3L)
    s;
  Printf.sprintf "%016Lx" !h

let cell_to_string = function
  | Ok (tput, rtt) ->
    Printf.sprintf "o:%s:%s" (Event.float_str tput) (Event.float_str rtt)
  | Error (F_timeout k) -> Printf.sprintf "t:%d" k
  | Error (F_crash k) -> Printf.sprintf "c:%d" k

(* A number is read only in the form the writer prints it, so that an
   accepted line reprints byte for byte: [int_of_string] alone also takes
   a sign, hex, octal and binary, [_] separators and leading zeros, and
   [float_of_string] exponents, hex floats and other [nan]/[inf]
   spellings.  Counts and attempt numbers are never negative, and a shard
   has at least one cell. *)
let nat_of_token s =
  match int_of_string_opt s with
  | Some n when n >= 0 && String.equal (string_of_int n) s -> Some n
  | _ -> None

let float_of_token s =
  match float_of_string_opt s with
  | Some x when String.equal (Event.float_str x) s -> Some x
  | _ -> None

let cell_of_token s =
  match String.split_on_char ':' s with
  | [ "o"; t; r ] -> (
    match (float_of_token t, float_of_token r) with
    | Some t, Some r -> Some (Ok (t, r))
    | _ -> None)
  | [ "t"; k ] -> Option.map (fun k -> Error (F_timeout k)) (nat_of_token k)
  | [ "c"; k ] -> Option.map (fun k -> Error (F_crash k)) (nat_of_token k)
  | _ -> None

let cell_of_string s =
  match cell_of_token s with Some c -> c | None -> failwith "bad cell"

let shard_line ~idx ~base cells =
  let body =
    Printf.sprintf "S %d %d %d %s" idx base (List.length cells)
      (String.concat " " (List.map cell_to_string cells))
  in
  body ^ " #" ^ fnv64 body

(* [parse_shard_line line] is [Some (idx, base, cells)] iff the line is
   complete, its checksum matches and every field is in the writer's form;
   then [shard_line ~idx ~base cells] is [line]. *)
let parse_shard_line line =
  match String.rindex_opt line '#' with
  | None -> None
  | Some hash_at ->
    if hash_at < 1 || line.[hash_at - 1] <> ' ' then None
    else begin
      let body = String.sub line 0 (hash_at - 1) in
      let crc = String.sub line (hash_at + 1) (String.length line - hash_at - 1) in
      if not (String.equal (fnv64 body) crc) then None
      else
        match String.split_on_char ' ' body with
        | "S" :: idx :: base :: ncells :: cells -> (
          match (nat_of_token idx, nat_of_token base, nat_of_token ncells) with
          | Some idx, Some base, Some n when n > 0 && n = List.length cells ->
            let parsed = List.filter_map cell_of_token cells in
            if List.length parsed = n then Some (idx, base, parsed) else None
          | _ -> None)
        | _ -> None
    end

(* Append one shard line; closing the channel flushes it.  The file always
   ends in a newline here (a fresh sweep or load_checkpoint wrote it last), and
   an empty one (a resume that found no file) gets the header first. *)
let append_line path ~header line =
  io @@ fun () ->
  Out_channel.with_open_gen
    [ Open_wronly; Open_append; Open_creat; Open_binary ] 0o644 path
  @@ fun oc ->
  if out_channel_length oc = 0 then begin
    output_string oc header;
    output_char oc '\n'
  end;
  output_string oc line;
  output_char oc '\n'

(* [replace path contents] writes through tmp+rename, so a crash leaves
   either the old file or the new one; a failed rename takes the tmp file
   with it *)
let replace path contents =
  let tmp = path ^ ".tmp" in
  io @@ fun () ->
  Out_channel.with_open_bin tmp (fun oc -> output_string oc contents);
  try Sys.rename tmp path
  with Sys_error _ as e ->
    Sys.remove tmp;
    raise e

(* [load_checkpoint path ~header ~accept] validates the header, then feeds
   each complete, checksum-clean, in-order shard line to [accept] until one
   is rejected (or the file ends / corrupts), rewrites the file to exactly
   the accepted prefix (tmp-write+rename), and returns the number of shards
   accepted.  A missing file is an empty checkpoint.
   @raise Output_error [Checkpoint_incompatible] when the header does not
   match [header] (different sweep parameters — resuming would silently mix
   populations) *)
let load_checkpoint path ~header ~accept =
  if not (Sys.file_exists path) then 0
  else begin
    let kept = Buffer.create 4096 in
    Buffer.add_string kept header;
    Buffer.add_char kept '\n';
    let shards = ref 0 in
    io (fun () ->
        In_channel.with_open_bin path @@ fun ic ->
        (match input_line ic with
         | exception End_of_file ->
           fail (Checkpoint_incompatible (path ^ ": empty checkpoint file"))
         | first ->
           if not (String.equal first header) then
             fail
               (Checkpoint_incompatible
                  (Printf.sprintf
                     "%s: checkpoint header does not match this sweep's \
                      parameters\n  file:   %s\n  sweep:  %s"
                     path first header)));
        let stop = ref false in
        while not !stop do
          match input_line ic with
          | exception End_of_file -> stop := true
          | line -> (
            match parse_shard_line line with
            | Some (idx, base, cells) when idx = !shards && accept ~base cells
              ->
              incr shards;
              Buffer.add_string kept line;
              Buffer.add_char kept '\n'
            | Some _ | None ->
              (* out-of-order, truncated, or corrupt: drop this line and
                 everything after it *)
              stop := true)
        done);
    replace path (Buffer.contents kept);
    !shards
  end

(* --- streaming aggregation ------------------------------------------------- *)

type scheme_agg = {
  ag_name : string;
  ag_tput : Stats.Welford.t;
  ag_rtt : Stats.Welford.t;
  ag_tput_p10 : Stats.P2.t;
  ag_tput_p50 : Stats.P2.t;
  ag_tput_p90 : Stats.P2.t;
  ag_rtt_p50 : Stats.P2.t;
  ag_rtt_p95 : Stats.P2.t;
  mutable ag_timeouts : int;
  mutable ag_crashes : int;
}

(* scheme 0 vs scheme i: the distributional claims of Fig. 19 *)
type pair_agg = {
  pr_name : string;
  pr_ratio_p50 : Stats.P2.t; (* tput(scheme0) / tput(scheme_i) *)
  pr_ddiff_p50 : Stats.P2.t; (* rtt(scheme0) - rtt(scheme_i), ms *)
  mutable pr_n : int;
  mutable pr_ratio_low : int; (* ratio < 0.9 *)
  mutable pr_delay_better : int; (* delay diff < -5 ms *)
}

type worst = {
  w_score : float;
  w_path : Path_model.t;
  w_cells : cell list;
}

type agg = {
  per_scheme : scheme_agg array;
  pairs : pair_agg array;
  mutable paths_done : int;
  mutable failures : int;
  mutable worst : worst list; (* descending score, length <= sw_triage_k *)
}

let create_agg cfg =
  let mk name =
    { ag_name = name; ag_tput = Stats.Welford.create ();
      ag_rtt = Stats.Welford.create (); ag_tput_p10 = Stats.P2.create 0.1;
      ag_tput_p50 = Stats.P2.create 0.5; ag_tput_p90 = Stats.P2.create 0.9;
      ag_rtt_p50 = Stats.P2.create 0.5; ag_rtt_p95 = Stats.P2.create 0.95;
      ag_timeouts = 0; ag_crashes = 0 }
  in
  let names = List.map (fun s -> s.Common.scheme_name) cfg.sw_schemes in
  { per_scheme = Array.of_list (List.map mk names);
    pairs =
      (match names with
       | [] | [ _ ] -> [||]
       | s0 :: rest ->
         Array.of_list
           (List.map
              (fun si ->
                { pr_name = s0 ^ "/" ^ si;
                  pr_ratio_p50 = Stats.P2.create 0.5;
                  pr_ddiff_p50 = Stats.P2.create 0.5; pr_n = 0;
                  pr_ratio_low = 0; pr_delay_better = 0 })
              rest));
    paths_done = 0;
    failures = 0;
    worst = [] }

(* Outlier score, higher = worse: a failed case dominates everything; with
   two or more schemes, the paper's headline anomaly is scheme0
   underperforming scheme1 (nimbus vs cubic by default), so the score is the
   relative throughput deficit 1 - t0/t1; with a single scheme, the weakest
   absolute throughput. *)
let score_path cells =
  if List.exists (function Error _ -> true | Ok _ -> false) cells then
    infinity
  else
    match cells with
    | Ok (t0, _) :: Ok (t1, _) :: _ ->
      if t1 > 0. then 1. -. (t0 /. t1) else 0.
    | [ Ok (t0, _) ] -> -.t0
    | _ -> neg_infinity

(* keep the k worst, descending score, ties broken toward the lower path id
   (which insertion order provides: paths arrive in id order) *)
let note_worst agg ~k w =
  if k > 0 then begin
    let rec insert = function
      | [] -> [ w ]
      | x :: rest ->
        if w.w_score > x.w_score then w :: x :: rest else x :: insert rest
    in
    let rec take n = function
      | [] -> []
      | _ when n = 0 -> []
      | x :: rest -> x :: take (n - 1) rest
    in
    agg.worst <- take k (insert agg.worst)
  end

(* the one feed path shared by live shards and checkpoint resume: identical
   call sequence => bit-identical accumulator state *)
let feed_path cfg agg path cells =
  List.iteri
    (fun i cell ->
      let sa = agg.per_scheme.(i) in
      match cell with
      | Ok (tput, rtt) ->
        Stats.Welford.add sa.ag_tput tput;
        Stats.Welford.add sa.ag_rtt rtt;
        Stats.P2.add sa.ag_tput_p10 tput;
        Stats.P2.add sa.ag_tput_p50 tput;
        Stats.P2.add sa.ag_tput_p90 tput;
        Stats.P2.add sa.ag_rtt_p50 rtt;
        Stats.P2.add sa.ag_rtt_p95 rtt;
        (if i > 0 then
           match (List.nth cells 0, cell) with
           | Ok (t0, r0), Ok (ti, ri) ->
             let pr = agg.pairs.(i - 1) in
             pr.pr_n <- pr.pr_n + 1;
             (* finite cells can still overflow here (a restored
                checkpoint may hold any finite value) *)
             if ti > 0. then begin
               let ratio = t0 /. ti in
               if Float.is_finite ratio then
                 Stats.P2.add pr.pr_ratio_p50 ratio;
               if ratio < 0.9 then pr.pr_ratio_low <- pr.pr_ratio_low + 1
             end;
             let ddiff_ms = (r0 -. ri) *. 1e3 in
             if Float.is_finite ddiff_ms then
               Stats.P2.add pr.pr_ddiff_p50 ddiff_ms;
             if ddiff_ms < -5. then
               pr.pr_delay_better <- pr.pr_delay_better + 1
           | _ -> ())
      | Error (F_timeout _) ->
        sa.ag_timeouts <- sa.ag_timeouts + 1;
        agg.failures <- agg.failures + 1
      | Error (F_crash _) ->
        sa.ag_crashes <- sa.ag_crashes + 1;
        agg.failures <- agg.failures + 1)
    cells;
  agg.paths_done <- agg.paths_done + 1;
  note_worst agg ~k:cfg.sw_triage_k
    { w_score = score_path cells; w_path = path; w_cells = cells }

(* --- running one case ------------------------------------------------------ *)

(* [run_cell]'s check turns a non-finite statistic into a crash cell, so a
   checkpoint shard holding one was not written by a sweep *)
let finite_stats (t, r) = Float.is_finite t && Float.is_finite r

let writable_cell = function Ok tr -> finite_stats tr | Error _ -> true

(* per-case run seeds follow the Fig. 18 convention (500 + path id), so the
   first 25 nimbus cells of a sweep are exactly the figure's runs *)
let case_seed path = 500 + path.Path_model.p_id

let run_cell cfg path sch : cell =
  let f ~seed =
    let watchdog =
      if cfg.sw_budget > 0. then begin
        let deadline = cfg.sw_clock () +. cfg.sw_budget in
        Some
          (fun () -> if cfg.sw_clock () > deadline then raise Case_timeout)
      end
      else None
    in
    let o = Path_model.run ?watchdog cfg.sw_profile path sch ~seed in
    (o.Path_model.o_tput, o.Path_model.o_rtt)
  in
  match
    Common.run_case
      ~check:(fun tr ->
        if finite_stats tr then None else Some "non-finite sweep statistic")
      ~attempts:(cfg.sw_retries + 1) ~seed:(case_seed path) f
  with
  | Ok cell -> Ok cell
  | Error c -> (
    match c.Common.crash_exn with
    | Case_timeout -> Error (F_timeout c.Common.crash_attempts)
    | _ -> Error (F_crash c.Common.crash_attempts))

(* one shard: the (path × scheme) matrix fanned over the profile's pool,
   results in input order *)
let run_shard cfg paths =
  let cases =
    List.concat_map
      (fun path -> List.map (fun sch -> (path, sch)) cfg.sw_schemes)
      paths
  in
  Common.map_cases cfg.sw_profile
    ~f:(fun (path, sch) ->
      run_cell
        (cfg
        [@shared_ok
          "immutable sweep configuration built before the fan-out; its \
           clock closure is a stateless wall-clock primitive"])
        path sch)
    cases

(* regroup a shard's path-major cell list into per-path rows *)
let rec chunk n = function
  | [] -> []
  | cells ->
    let rec split k acc rest =
      if k = 0 then (List.rev acc, rest)
      else
        match rest with
        | [] -> invalid_arg "Sweep: short shard"
        | c :: tl -> split (k - 1) (c :: acc) tl
    in
    let row, rest = split n [] cells in
    row :: chunk n rest

(* --- tables ---------------------------------------------------------------- *)

let fmt_cell = function
  | Ok (tput, rtt) ->
    Printf.sprintf "%s Mb/%s ms" (Table.fmt_mbps tput) (Table.fmt_ms rtt)
  | Error (F_timeout k) -> Printf.sprintf "!timeout(%d att)" k
  | Error (F_crash k) -> Printf.sprintf "!crash(%d att)" k

let tables cfg agg =
  let q p2 = Stats.P2.quantile p2 in
  let per_scheme =
    Table.make ~title:"Fleet sweep: per-scheme aggregate over sampled paths"
      ~header:
        [ "scheme"; "ok"; "timeout"; "crash"; "mean tput"; "sd"; "p10"; "p50";
          "p90"; "p50 rtt"; "p95 rtt" ]
      ~notes:
        [ Printf.sprintf
            "population: %d paths, seed %d, schemes %s; streaming P2/Welford \
             aggregation (O(1) memory, deterministic in shard order)"
            cfg.sw_paths cfg.sw_seed
            (String.concat ","
               (List.map (fun s -> s.Common.scheme_name) cfg.sw_schemes)) ]
      (Array.to_list
         (Array.map
            (fun sa ->
              [ sa.ag_name;
                string_of_int (Stats.Welford.count sa.ag_tput);
                string_of_int sa.ag_timeouts;
                string_of_int sa.ag_crashes;
                Table.fmt_mbps (Stats.Welford.mean sa.ag_tput);
                Table.fmt_mbps (Stats.Welford.stddev sa.ag_tput);
                Table.fmt_mbps (q sa.ag_tput_p10);
                Table.fmt_mbps (q sa.ag_tput_p50);
                Table.fmt_mbps (q sa.ag_tput_p90);
                Table.fmt_ms (q sa.ag_rtt_p50);
                Table.fmt_ms (q sa.ag_rtt_p95) ])
            agg.per_scheme))
  in
  let pair_tables =
    if Array.length agg.pairs = 0 then []
    else
      [ Table.make
          ~title:
            (Printf.sprintf "Fleet sweep: %s vs baselines (paired per path)"
               agg.per_scheme.(0).ag_name)
          ~header:
            [ "pair"; "paths"; "p50 tput ratio"; "ratio<0.9"; "p50 delay \
               diff (ms)"; "delay<-5ms" ]
          ~notes:
            [ "Fig 19 at fleet scale: tput ratio ~1 and delay diff <= 0 \
               nearly everywhere is the paper's distributional claim" ]
          (Array.to_list
             (Array.map
                (fun pr ->
                  let frac k =
                    if pr.pr_n = 0 then "-"
                    else Table.fmt_pct (float_of_int k /. float_of_int pr.pr_n)
                  in
                  [ pr.pr_name;
                    string_of_int pr.pr_n;
                    Table.fmt_float (q pr.pr_ratio_p50);
                    frac pr.pr_ratio_low;
                    Table.fmt_float (q pr.pr_ddiff_p50);
                    frac pr.pr_delay_better ])
                agg.pairs)) ]
  in
  let worst_table =
    if cfg.sw_triage_k = 0 then []
    else
      [ Table.make
          ~title:
            (Printf.sprintf "Fleet sweep: worst-%d outlier paths"
               cfg.sw_triage_k)
          ~header:
            ([ "path"; "profile"; "score" ]
            @ List.map (fun s -> s.Common.scheme_name) cfg.sw_schemes)
          ~notes:
            [ "score: failed case = inf; else relative tput deficit of \
               scheme0 vs scheme1 (1 - t0/t1); these paths are re-run by \
               the triage pass with tracing + invariants" ]
          (List.map
             (fun w ->
               [ string_of_int w.w_path.Path_model.p_id;
                 Path_model.describe w.w_path;
                 (if Float.is_finite w.w_score then
                    Table.fmt_float ~digits:3 w.w_score
                  else "inf") ]
               @ List.map fmt_cell w.w_cells)
             agg.worst) ]
  in
  [ per_scheme ] @ pair_tables @ worst_table

(* --- triage ---------------------------------------------------------------- *)

(* everything except per-packet lifecycle and engine sampling: small enough
   to archive per case, detailed enough to diagnose a detector anomaly *)
let triage_filter =
  "bottleneck,fault,flow,detector,spectrum,pulse,mode,election,invariant"

type triage_row = {
  tr_path : Path_model.t;
  tr_scheme : string;
  tr_result : (float * float * int, string) result;
      (* tput, rtt, violations | crash marker *)
  tr_trace : string; (* JSONL *)
}

let run_triage cfg agg =
  if cfg.sw_triage_k = 0 || agg.worst = [] then []
  else begin
    let mask =
      match Trace.parse_filter triage_filter with
      | Ok m -> m
      | Error msg -> invalid_arg ("Sweep: triage filter: " ^ msg)
    in
    let cases =
      List.concat_map
        (fun w ->
          List.map (fun sch -> (w.w_path, sch)) cfg.sw_schemes)
        agg.worst
    in
    let profile = cfg.sw_profile in
    let rows =
      Common.map_cases profile
        ~f:(fun (path, sch) ->
          let tbuf = Buffer.create 65536 in
          let tr = Trace.create ~mask () in
          Trace.attach tr (`Buffer tbuf);
          let result =
            match
              Common.run_case ~seed:(case_seed path)
                (fun ~seed ->
                  Fun.protect
                    ~finally:(fun () -> Trace.close tr)
                    (fun () ->
                      Path_model.run ~trace:tr ~invariants:true profile
                        path sch ~seed))
            with
            | Ok o ->
              Ok (o.Path_model.o_tput, o.Path_model.o_rtt,
                  o.Path_model.o_violations)
            | Error c -> Error (Common.crash_cell c)
          in
          { tr_path = path; tr_scheme = sch.Common.scheme_name;
            tr_result = result; tr_trace = Buffer.contents tbuf })
        cases
    in
    (* archive in input order, in the coordinator: file set and contents are
       deterministic whatever the pool size *)
    (match cfg.sw_triage_dir with
     | None -> ()
     | Some dir ->
       List.iter
         (fun row ->
           let file =
             Filename.concat dir
               (Printf.sprintf "path%d_%s.jsonl" row.tr_path.Path_model.p_id
                  row.tr_scheme)
           in
           io (fun () ->
               Out_channel.with_open_bin file (fun oc ->
                   output_string oc row.tr_trace)))
         rows);
    rows
  end

let triage_table cfg rows =
  if rows = [] then []
  else
    [ Table.make ~title:"Fleet sweep: triage re-runs (traced, invariants on)"
        ~header:[ "path"; "profile"; "scheme"; "tput"; "rtt"; "violations";
                  "trace" ]
        ~notes:
          [ "worst-k outliers re-run with the invariant monitor and a \
             detector-focused trace; traces archived under --triage-dir" ]
        (List.map
           (fun row ->
             let tput, rtt, viol =
               match row.tr_result with
               | Ok (t, r, v) ->
                 (Table.fmt_mbps t, Table.fmt_ms r, string_of_int v)
               | Error marker -> ("-", "-", marker)
             in
             [ string_of_int row.tr_path.Path_model.p_id;
               Path_model.describe row.tr_path;
               row.tr_scheme; tput; rtt; viol;
               (match cfg.sw_triage_dir with
                | None -> "-"
                | Some dir ->
                  Filename.concat dir
                    (Printf.sprintf "path%d_%s.jsonl"
                       row.tr_path.Path_model.p_id row.tr_scheme)) ])
           rows) ]

(* --- the sweep ------------------------------------------------------------- *)

type outcome = {
  tables : Table.t list;
  interrupted : bool; (* sw_stop_after fired; tables are empty *)
  completed_shards : int;
  total_shards : int;
  paths_done : int;
  failures : int;
}

(* every output path is checked before the first shard runs, so a bad one
   fails in a second instead of after the whole sweep *)
let check_outputs cfg =
  (match cfg.sw_checkpoint with
   | Some path when Sys.file_exists path && Sys.is_directory path ->
     fail (Unwritable ("--checkpoint " ^ path ^ ": is a directory"))
   | _ -> ());
  match cfg.sw_triage_dir with
  | Some dir when cfg.sw_triage_k > 0 ->
    io (fun () -> if not (Sys.file_exists dir) then Sys.mkdir dir 0o755);
    if not (Sys.is_directory dir) then
      fail (Unwritable ("--triage-dir " ^ dir ^ ": not a directory"))
  | _ -> ()

let run cfg =
  check_outputs cfg;
  let nschemes = List.length cfg.sw_schemes in
  let total_shards = (cfg.sw_paths + cfg.sw_shard - 1) / cfg.sw_shard in
  let shard_paths idx =
    let base = idx * cfg.sw_shard in
    (base, min cfg.sw_shard (cfg.sw_paths - base))
  in
  let agg = create_agg cfg in
  let sampler = Path_model.sampler ~seed:cfg.sw_seed in
  let header = header_line cfg in
  (* resume: fold checkpointed shards through the same feed path a live
     shard takes, regenerating each shard's paths from the sampler so the
     stream stays aligned and triage still knows every path's profile *)
  let resumed =
    match cfg.sw_checkpoint with
    | Some path when cfg.sw_resume ->
      let loaded = ref 0 in
      let n =
        load_checkpoint path ~header ~accept:(fun ~base cells ->
            let exp_base, nb = shard_paths !loaded in
            if
              base <> exp_base
              || List.length cells <> nb * nschemes
              || not (List.for_all writable_cell cells)
            then false
            else begin
              let paths = List.init nb (fun _ -> Path_model.next sampler) in
              List.iter2 (feed_path cfg agg) paths (chunk nschemes cells);
              incr loaded;
              true
            end)
      in
      cfg.sw_log
        (Printf.sprintf "resume: %d/%d shard(s) restored from %s" n
           total_shards path);
      if cfg.sw_triage_only && n < total_shards then
        fail
          (Checkpoint_incomplete
             (Printf.sprintf
                "%s: --triage-only needs a complete checkpoint, but only \
                 %d/%d shard(s) are present — run the sweep (with --resume) \
                 to completion first"
                path n total_shards));
      n
    | Some path ->
      (* fresh sweep: truncate whatever was there *)
      replace path (header ^ "\n");
      0
    | None -> 0
  in
  let interrupted = ref false in
  let shard = ref resumed in
  while (not !interrupted) && !shard < total_shards do
    let idx = !shard in
    let base, nb = shard_paths idx in
    let paths = List.init nb (fun _ -> Path_model.next sampler) in
    let cells = run_shard cfg paths in
    (match cfg.sw_checkpoint with
     | Some path -> append_line path ~header (shard_line ~idx ~base cells)
     | None -> ());
    List.iter2 (feed_path cfg agg) paths (chunk nschemes cells);
    shard := idx + 1;
    cfg.sw_log
      (Printf.sprintf "shard %d/%d: %d case(s), %d failure(s) so far" (idx + 1)
         total_shards (nb * nschemes) agg.failures);
    match cfg.sw_stop_after with
    | Some n when !shard >= n ->
      interrupted := !shard < total_shards;
      if !interrupted then
        cfg.sw_log
          (Printf.sprintf "stopping after %d shard(s) (--stop-after)" !shard)
    | _ -> ()
  done;
  if !interrupted then
    { tables = []; interrupted = true; completed_shards = !shard;
      total_shards; paths_done = agg.paths_done; failures = agg.failures }
  else begin
    let triage_rows = run_triage cfg agg in
    let tables = tables cfg agg in
    { tables = tables @ triage_table cfg triage_rows;
      interrupted = false; completed_shards = !shard; total_shards;
      paths_done = agg.paths_done; failures = agg.failures }
  end
