(* Tests for the fleet sweep stack: the streaming estimators (Welford, P²),
   the Stats empty/all-NaN guards, the Path_model population, checkpoint
   round-trips and corrupt-trailer recovery, and the headline robustness
   property — a sweep interrupted mid-run and resumed from its checkpoint
   produces byte-identical tables to an uninterrupted run, at any pool
   size.  Sim-heavy cases use cheap schemes (cubic/vegas) so the suite
   stays fast. *)

module E = Nimbus_experiments
module Sweep = E.Sweep
module Path_model = E.Path_model
module Stats = Nimbus_dsp.Stats
module Rng = Nimbus_sim.Rng
module Pool = Nimbus_parallel.Pool

let qtest = QCheck_alcotest.to_alcotest

(* --- stats guards (satellite 1) ------------------------------------------- *)

let test_stats_guards () =
  Alcotest.check_raises "percentile []" (Invalid_argument
    "Stats.percentile: empty input") (fun () ->
      ignore (Stats.percentile [||] 50.));
  Alcotest.check_raises "percentile all-NaN" (Invalid_argument
    "Stats.percentile: all-NaN input") (fun () ->
      ignore (Stats.percentile [| nan; nan |] 50.));
  Alcotest.(check int) "cdf_points []" 0
    (Array.length (Stats.cdf_points [||] ~points:5));
  Alcotest.(check int) "cdf_points all-NaN" 0
    (Array.length (Stats.cdf_points [| nan |] ~points:5));
  Alcotest.(check (float 1e-9)) "mean skips NaN" 2.
    (Stats.mean [| 1.; nan; 3. |]);
  Alcotest.(check (float 1e-9)) "percentile skips NaN" 2.
    (Stats.percentile [| 1.; nan; 3. |] 50.)

(* --- Welford --------------------------------------------------------------- *)

let qcheck_welford =
  QCheck.Test.make ~count:100 ~name:"sweep: Welford = exact mean/variance"
    QCheck.(list_of_size Gen.(int_range 2 50) (float_bound_exclusive 1000.))
    (fun xs ->
      let w = Stats.Welford.create () in
      List.iter (Stats.Welford.add w) xs;
      let a = Array.of_list xs in
      abs_float (Stats.Welford.mean w -. Stats.mean a) < 1e-6
      && abs_float (Stats.Welford.variance w -. Stats.variance a) < 1e-4)

let test_welford_empty () =
  let w = Stats.Welford.create () in
  Alcotest.(check int) "count" 0 (Stats.Welford.count w);
  Alcotest.(check bool) "mean nan" true (Float.is_nan (Stats.Welford.mean w));
  Alcotest.check_raises "rejects nan" (Invalid_argument
    "Stats.Welford.add: non-finite sample") (fun () -> Stats.Welford.add w nan)

(* --- P² -------------------------------------------------------------------- *)

let test_p2_small_exact () =
  (* first five samples: quantile must equal the exact percentile *)
  let p2 = Stats.P2.create 0.5 in
  List.iter (Stats.P2.add p2) [ 9.; 1.; 5.; 3.; 7. ];
  Alcotest.(check (float 1e-9)) "median of 5" 5. (Stats.P2.quantile p2);
  let q = Stats.P2.create 0.9 in
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (Stats.P2.quantile q));
  Stats.P2.add q 4.;
  Alcotest.(check (float 1e-9)) "one sample" 4. (Stats.P2.quantile q)

(* P² on a large uniform stream tracks the exact batch percentile.  Draws
   come from the repo's splitmix RNG keyed by the qcheck-generated seed, so
   shrinking stays meaningful. *)
let qcheck_p2_uniform =
  QCheck.Test.make ~count:30 ~name:"sweep: P2 ~ exact percentile (uniform)"
    QCheck.(pair (int_range 0 10_000) (oneofl [ 0.1; 0.5; 0.9; 0.95 ]))
    (fun (seed, p) ->
      let rng = Rng.create seed in
      let n = 2000 in
      let xs = Array.init n (fun _ -> Rng.uniform rng) in
      let p2 = Stats.P2.create p in
      Array.iter (Stats.P2.add p2) xs;
      abs_float (Stats.P2.quantile p2 -. Stats.percentile xs (p *. 100.))
      < 0.03)

let qcheck_p2_bimodal =
  QCheck.Test.make ~count:20 ~name:"sweep: P2 ~ exact percentile (bimodal)"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 3000 in
      let xs =
        Array.init n (fun _ ->
            if Rng.uniform rng < 0.3 then 10. +. Rng.uniform rng
            else 100. +. (50. *. Rng.uniform rng))
      in
      let p2 = Stats.P2.create 0.5 in
      Array.iter (Stats.P2.add p2) xs;
      (* spread ~150, generous tolerance: P² is an estimate, but it must
         land in the right mode *)
      abs_float (Stats.P2.quantile p2 -. Stats.percentile xs 50.) < 8.)

(* --- Path_model (satellite 2) ---------------------------------------------- *)

let test_path_prefix_property () =
  (* the 25-path figure population is a strict prefix of any larger sweep *)
  let small = Path_model.sample ~count:25 ~seed:1819 in
  let large = Path_model.sample ~count:100 ~seed:1819 in
  let prefix = List.filteri (fun i _ -> i < 25) large in
  Alcotest.(check bool) "first 25 of 100 = sample 25" true (small = prefix);
  (* the sampler interface agrees with the batch one *)
  let s = Path_model.sampler ~seed:1819 in
  for _ = 1 to 10 do
    ignore (Path_model.next s)
  done;
  Alcotest.(check bool) "11th next = 11th path" true
    (Path_model.next s = List.nth large 10)

let test_path_describe () =
  let p = List.hd (Path_model.sample ~count:1 ~seed:1819) in
  Alcotest.(check bool) "describe mentions kind" true
    (String.length (Path_model.describe p) > 0
    && List.mem (Path_model.kind p) [ "lossy"; "policed"; "buffered" ])

(* --- checkpoint encoding --------------------------------------------------- *)

let arb_cell =
  QCheck.(
    oneof
      [ map
          (fun (t, r) -> Ok (Float.abs t, Float.abs r))
          (pair (float_bound_exclusive 1e9) (float_bound_exclusive 10.));
        map (fun k -> Error (Sweep.F_timeout (1 + abs k mod 5))) int;
        map (fun k -> Error (Sweep.F_crash (1 + abs k mod 5))) int ])

let qcheck_cell_roundtrip =
  QCheck.Test.make ~count:200 ~name:"sweep: checkpoint cell round-trips"
    arb_cell
    (fun cell -> Sweep.cell_of_string (Sweep.cell_to_string cell) = cell)

let qcheck_shard_line_roundtrip =
  QCheck.Test.make ~count:100 ~name:"sweep: shard line round-trips"
    QCheck.(pair (pair small_nat small_nat) (list_of_size Gen.(int_range 1 8) arb_cell))
    (fun ((idx, base), cells) ->
      match Sweep.parse_shard_line (Sweep.shard_line ~idx ~base cells) with
      | Some (i, b, cs) -> i = idx && b = base && cs = cells
      | None -> false)

(* The checkpoint's FNV-1a 64-bit checksum, computed here independently,
   so that a random body can be given a valid one. *)
let fnv64 s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c)))
             0x100000001b3L)
    s;
  Printf.sprintf "%016Lx" !h

(* Number tokens as a corrupted or hand-edited checkpoint might hold them:
   the forms the writer prints, and the ones [int_of_string] or
   [float_of_string] also take (signs, hex, octal, binary, [_]
   separators, leading zeros, exponents, [nan]/[inf] spellings). *)
let int_token =
  QCheck.Gen.(
    oneof
      [ map string_of_int (int_range 0 40);
        map string_of_int (int_range (-40) (-1));
        oneofl
          [ "0x1f"; "0X10"; "0o17"; "0b101"; "0u7"; "+3"; "1_0"; "007"; "-0";
            ""; "99999999999999999999"; "1e2"; " 1"; "nan" ] ])

let float_token =
  QCheck.Gen.(
    oneof
      [ map Nimbus_trace.Event.float_str (float_bound_exclusive 1e9);
        map Nimbus_trace.Event.float_str float;
        oneofl
          [ "nan"; "NaN"; "-nan"; "inf"; "-inf"; "infinity"; "1e5"; "0x1p3";
            "1_0.5"; "1."; ".5"; "+1"; "-0"; "00.5"; "" ] ])

let cell_token =
  QCheck.Gen.(
    oneof
      [ map2 (Printf.sprintf "o:%s:%s") float_token float_token;
        map (Printf.sprintf "t:%s") int_token;
        map (Printf.sprintf "c:%s") int_token;
        oneofl [ "o:1"; "o:1:2:3"; "x:1"; "t"; ""; "t:1:2" ] ])

(* A body with the shard line's shape and random tokens, and a cell count
   that is right, one off, or any token. *)
let shard_body =
  QCheck.Gen.(
    list_size (int_range 0 6) cell_token >>= fun cells ->
    let n = List.length cells in
    oneof
      [ return (string_of_int n); return (string_of_int (n + 1));
        return (string_of_int (max 0 (n - 1))); int_token ]
    >>= fun count ->
    map3
      (fun tag idx base ->
        String.concat " " (tag :: idx :: base :: count :: cells))
      (frequency [ (9, return "S"); (1, oneofl [ "s"; "SS"; "" ]) ])
      int_token int_token)

(* Reading a checkpoint line is total: on any body given a valid checksum,
   [parse_shard_line] never raises, and what it accepts the writer prints
   back byte for byte, so a resumed sweep folds exactly what was
   written. *)
let qcheck_shard_line_total =
  QCheck.Test.make ~count:2000
    ~name:"sweep: a checksummed line parses to what reprints it"
    (QCheck.make ~print:Fun.id shard_body)
    (fun body ->
      let line = body ^ " #" ^ fnv64 body in
      match Sweep.parse_shard_line line with
      | None -> true
      | Some (idx, base, cells) ->
        String.equal (Sweep.shard_line ~idx ~base cells) line)

(* What the totality property found: with a valid checksum, a shard line
   parsed although it could not have been written, and reprinted to a
   different line.  Each field must be in the writer's form. *)
let test_shard_line_non_canonical () =
  let signed body = body ^ " #" ^ fnv64 body in
  List.iter
    (fun body ->
      if Sweep.parse_shard_line (signed body) <> None then
        Alcotest.failf "accepted %S" body)
    [ "S 0x1f 0 1 t:1"; "S 0 +3 1 t:1"; "S 0 0 0b1 t:1"; "S 1_0 0 1 t:1";
      "S 007 0 1 t:1"; "S -1 0 1 t:1"; "S 0 -32 1 t:1"; "S 0 0 1 t:-2";
      "S 0 0 1 c:0o7"; "S 0 0 1 o:1e5:0.05"; "S 0 0 1 o:NaN:0.05";
      "S 0 0 1 o:1:infinity"; "S 0 0 1 o:0x1p3:1"; "S 0 0 1 o:-nan:1";
      "S 36 40 0" ];
  (* the writer's own forms still parse, NaN and infinities included *)
  let cells = [ Ok (nan, infinity); Ok (-0., 1e5); Error (Sweep.F_crash 0) ] in
  let line = Sweep.shard_line ~idx:3 ~base:12 cells in
  match Sweep.parse_shard_line line with
  | Some (3, 12, got) ->
    Alcotest.(check string)
      "reprints" line
      (Sweep.shard_line ~idx:3 ~base:12 got)
  | _ -> Alcotest.failf "rejected %S" line

let test_shard_line_corruption () =
  let line = Sweep.shard_line ~idx:0 ~base:0 [ Ok (42e6, 0.05) ] in
  (* truncation (a torn write) and payload corruption must both fail the
     checksum; whitespace-only lines must not parse either *)
  Alcotest.(check bool) "truncated rejected" true
    (Sweep.parse_shard_line (String.sub line 0 (String.length line - 3))
    = None);
  let corrupt = Bytes.of_string line in
  Bytes.set corrupt 2 '9';
  Alcotest.(check bool) "corrupt payload rejected" true
    (Sweep.parse_shard_line (Bytes.to_string corrupt) = None);
  Alcotest.(check bool) "junk rejected" true
    (Sweep.parse_shard_line "S 0 0" = None)

(* --- sweep runs ------------------------------------------------------------ *)

(* [with_pool jobs f] hands [f] a quick profile carrying a [jobs]-domain
   pool *)
let with_pool jobs f =
  Pool.run ~domains:jobs (fun pool ->
      f { E.Common.quick with E.Common.pool = Some pool })

let temp_name suffix =
  let f = Filename.temp_file "nimbus_sweep" suffix in
  Sys.remove f;
  f

(* small matrix of cheap schemes; budget off => fully deterministic *)
let base_cfg ?profile ?checkpoint ?resume ?stop_after ?triage_only () =
  Sweep.config ~paths:4 ~seed:7 ~schemes:[ E.Common.cubic; E.Common.vegas ]
    ?profile ~shard_size:2 ~retries:1 ?checkpoint ?resume ?stop_after
    ~triage_k:2 ?triage_only ()

let rendered outcome = List.map E.Table.render outcome.Sweep.tables

let test_resume_byte_identical () =
  (* reference: uninterrupted, sequential *)
  let reference = rendered (Sweep.run (base_cfg ())) in
  Alcotest.(check bool) "reference has tables" true (reference <> []);
  List.iter
    (fun jobs ->
      let ck = temp_name ".ck" in
      Fun.protect ~finally:(fun () -> if Sys.file_exists ck then Sys.remove ck)
      @@ fun () ->
      (* run shard 0, then "crash" (stop_after), then resume the rest *)
      let interrupted =
        with_pool jobs (fun profile ->
            Sweep.run (base_cfg ~profile ~checkpoint:ck ~stop_after:1 ()))
      in
      Alcotest.(check bool) "interrupted flagged" true
        interrupted.Sweep.interrupted;
      Alcotest.(check int) "no tables while interrupted" 0
        (List.length interrupted.Sweep.tables);
      Alcotest.(check int) "one shard done" 1 interrupted.Sweep.completed_shards;
      let resumed =
        with_pool jobs (fun profile ->
            Sweep.run (base_cfg ~profile ~checkpoint:ck ~resume:true ()))
      in
      Alcotest.(check int)
        (Printf.sprintf "all shards done (jobs=%d)" jobs)
        resumed.Sweep.total_shards resumed.Sweep.completed_shards;
      Alcotest.(check (list string))
        (Printf.sprintf "resumed tables byte-identical (jobs=%d)" jobs)
        reference (rendered resumed))
    [ 1; 2; 4 ]

let test_resume_corrupt_trailer () =
  let ck = temp_name ".ck" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists ck then Sys.remove ck)
  @@ fun () ->
  let reference = rendered (Sweep.run (base_cfg ())) in
  ignore (Sweep.run (base_cfg ~checkpoint:ck ~stop_after:2 ()));
  (* tear the last shard line mid-cell, as a kill mid-write would *)
  let ic = open_in_bin ck in
  let len = in_channel_length ic in
  let contents = really_input_string ic len in
  close_in ic;
  let oc = open_out_bin ck in
  output_string oc (String.sub contents 0 (len - 7));
  close_out oc;
  let resumed = rendered (Sweep.run (base_cfg ~checkpoint:ck ~resume:true ())) in
  Alcotest.(check (list string)) "recovers from torn trailer" reference resumed

let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_resume_half_appended_line () =
  (* a kill while shard 1's line is being appended leaves half of it after
     shard 0's: resume drops it, reruns shard 1 and appends it whole, so the
     checkpoint ends byte-identical to an uninterrupted run's *)
  let ck = temp_name ".ck" and full = temp_name ".ck" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ ck; full ])
  @@ fun () ->
  let reference = rendered (Sweep.run (base_cfg ~checkpoint:full ())) in
  let checkpoint = read_file full in
  ignore (Sweep.run (base_cfg ~checkpoint:ck ~stop_after:1 ()));
  let shard1 = List.nth (String.split_on_char '\n' checkpoint) 2 in
  Out_channel.with_open_gen [ Open_wronly; Open_append; Open_binary ] 0o644 ck
    (fun oc -> output_string oc (String.sub shard1 0 (String.length shard1 / 2)));
  let resumed = rendered (Sweep.run (base_cfg ~checkpoint:ck ~resume:true ())) in
  Alcotest.(check (list string)) "tables byte-identical" reference resumed;
  Alcotest.(check string) "checkpoint byte-identical" checkpoint (read_file ck)

let test_resume_incompatible_header () =
  let ck = temp_name ".ck" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists ck then Sys.remove ck)
  @@ fun () ->
  ignore (Sweep.run (base_cfg ~checkpoint:ck ~stop_after:1 ()));
  let other =
    Sweep.config ~paths:4 ~seed:8 ~schemes:[ E.Common.cubic; E.Common.vegas ]
      ~shard_size:2 ~checkpoint:ck ~resume:true ()
  in
  Alcotest.(check bool) "different seed rejected" true
    (match Sweep.run other with
     | exception Sweep.Output_error (Sweep.Checkpoint_incompatible _) -> true
     | _ -> false)

let test_triage_only_byte_identical () =
  let ck = temp_name ".ck" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists ck then Sys.remove ck)
  @@ fun () ->
  (* the full run writes the checkpoint; the triage-only pass skips every
     shard, restores them all, and must print the exact same tables *)
  let reference = rendered (Sweep.run (base_cfg ~checkpoint:ck ())) in
  let triaged =
    rendered (Sweep.run (base_cfg ~checkpoint:ck ~triage_only:true ()))
  in
  Alcotest.(check (list string)) "triage-only tables byte-identical"
    reference triaged

let test_triage_only_incomplete () =
  let ck = temp_name ".ck" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists ck then Sys.remove ck)
  @@ fun () ->
  ignore (Sweep.run (base_cfg ~checkpoint:ck ~stop_after:1 ()));
  Alcotest.(check bool) "partial checkpoint rejected" true
    (match Sweep.run (base_cfg ~checkpoint:ck ~triage_only:true ()) with
     | exception Sweep.Output_error (Sweep.Checkpoint_incomplete _) -> true
     | _ -> false);
  Alcotest.(check bool) "triage-only without checkpoint rejected" true
    (match base_cfg ~triage_only:true () with
     | exception Invalid_argument _ -> true
     | _ -> false)

let test_crash_cells () =
  (* vegas raises on path 1's link at every attempt, whatever the seed: the
     case must cost exactly one typed crash cell, not the sweep *)
  let p1 = List.nth (Path_model.sample ~count:2 ~seed:7) 1 in
  let vegas = E.Common.vegas in
  let crashing =
    { vegas with
      E.Common.start_flow =
        (fun net ?start () ->
          let mu = Units.Rate.to_bps net.E.Common.net_link.E.Common.mu in
          if Float.equal mu (p1.Path_model.mbps *. 1e6) then
            failwith "forced crash on path 1"
          else vegas.E.Common.start_flow net ?start ()) }
  in
  let cfg =
    Sweep.config ~paths:2 ~seed:7 ~schemes:[ E.Common.cubic; crashing ]
      ~shard_size:2 ~retries:1 ~triage_k:1 ()
  in
  let o = Sweep.run cfg in
  Alcotest.(check bool) "not interrupted" false o.Sweep.interrupted;
  Alcotest.(check int) "exactly one failure" 1 o.Sweep.failures;
  (* the worst-k table surfaces the failed path with an infinite score *)
  let worst =
    List.find_opt
      (fun (t : E.Table.t) ->
        String.length t.E.Table.title >= 17
        && String.sub t.E.Table.title 0 17 = "Fleet sweep: wors")
      o.Sweep.tables
  in
  match worst with
  | None -> Alcotest.fail "missing worst-k table"
  | Some t ->
    let row = List.hd t.E.Table.rows in
    Alcotest.(check string) "failed path ranked worst" "1" (List.hd row);
    Alcotest.(check string) "infinite score" "inf" (List.nth row 2)

let test_watchdog_timeout_cells () =
  (* a fake wall clock that leaps 1000 s per reading: every attempt blows
     any positive budget at its first poll, deterministically *)
  let now = ref 0. in
  let cfg =
    Sweep.config ~paths:1 ~seed:7 ~schemes:[ E.Common.cubic ] ~shard_size:1
      ~budget:5. ~retries:2 ~triage_k:0
      ~clock:(fun () ->
        now := !now +. 1000.;
        !now)
      ()
  in
  let o = Sweep.run cfg in
  Alcotest.(check int) "one failure" 1 o.Sweep.failures;
  let t = List.hd o.Sweep.tables in
  let row = List.hd t.E.Table.rows in
  (* per-scheme table: scheme ok timeout crash ... *)
  Alcotest.(check string) "no ok cells" "0" (List.nth row 1);
  Alcotest.(check string) "timeout cell, all attempts" "1" (List.nth row 2);
  Alcotest.(check string) "not a crash" "0" (List.nth row 3)

(* --- checkpoint loading is total ------------------------------------------ *)

(* a scheme that raises at once, so a sweep of it simulates nothing *)
let instant_crash name =
  { E.Common.scheme_name = name;
    start_flow = (fun _ ?start:_ () -> failwith "instant crash") }

let resume_cfg ?(resume = true) ck =
  Sweep.config ~paths:3 ~seed:7
    ~schemes:[ instant_crash "a"; instant_crash "b" ]
    ~shard_size:1 ~retries:0 ~checkpoint:ck ~resume ~triage_k:1 ()

(* the header line a fresh sweep of [resume_cfg] writes *)
let resume_header =
  lazy
    (let ck = temp_name ".ck" in
     Fun.protect ~finally:(fun () -> if Sys.file_exists ck then Sys.remove ck)
     @@ fun () ->
     ignore (Sweep.run (resume_cfg ~resume:false ck));
     In_channel.with_open_bin ck input_line)

(* cells as a checkpoint may hold them: the writer's own values, and
   statistics no simulation would produce *)
let file_cell =
  QCheck.Gen.(
    let odd =
      oneofl
        [ nan; infinity; neg_infinity; -1.; -0.; 0.; Float.min_float;
          Float.max_float ]
    in
    oneof
      [ QCheck.gen arb_cell; map2 (fun t r -> Ok (t, r)) odd odd;
        map (fun k -> Error (Sweep.F_crash k)) (oneofl [ 0; max_int ]) ])

(* line [k] of a checkpoint file: the shard it should hold, a checksummed
   line of the wrong shard or size, a checksummed random body, or noise;
   then perhaps a CR left by a CRLF copy, a torn end or a flipped byte *)
let file_line k =
  QCheck.Gen.(
    let cells n = list_size (return n) file_cell in
    frequency
      [ (4, map (fun cs -> Sweep.shard_line ~idx:k ~base:k cs) (cells 2));
        ( 1,
          map3
            (fun idx base cs -> Sweep.shard_line ~idx ~base cs)
            (int_range 0 4) (int_range 0 4)
            (int_range 1 4 >>= cells) );
        (1, map (fun body -> body ^ " #" ^ fnv64 body) shard_body);
        (1, string_size ~gen:printable (int_range 0 40)) ]
    >>= fun line ->
    let n = String.length line in
    frequency
      [ (6, return line); (1, return (line ^ "\r"));
        (1, map (fun i -> String.sub line 0 i) (int_range 0 n));
        ( 1,
          if n = 0 then return line
          else
            map2
              (fun i c -> String.mapi (fun j x -> if j = i then c else x) line)
              (int_range 0 (n - 1)) char ) ])

(* the header, or a near miss of it *)
let file_header header =
  QCheck.Gen.(
    let n = String.length header in
    frequency
      [ (6, return header); (1, return (header ^ "\r"));
        (1, return (header ^ " "));
        (1, map (fun i -> String.sub header 0 i) (int_range 0 (n - 1)));
        (1, return ("NIMSWP00" ^ String.sub header 8 (n - 8)));
        (1, return (String.sub header 0 (n - 1) ^ "c")) ])

let checkpoint_file header =
  QCheck.Gen.(
    frequency
      [ ( 8,
          map3
            (fun h lines nl -> String.concat "\n" (h :: lines) ^ nl)
            (file_header header)
            (int_range 0 5 >>= fun n -> flatten_l (List.init n file_line))
            (oneofl [ ""; "\n" ]) );
        (1, string_size ~gen:char (int_range 0 200)) ])

(* [with_checkpoint contents f] runs [f] on a checkpoint file holding
   [contents] *)
let with_checkpoint contents f =
  let ck = temp_name ".ck" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists ck then Sys.remove ck)
  @@ fun () ->
  Out_channel.with_open_bin ck (fun oc -> output_string oc contents);
  f ck

(* Loading a checkpoint is total: whatever bytes the file holds, a resumed
   sweep either raises [Output_error] or runs to the end, and the file it
   leaves is clean — resuming from it again restores every shard and
   renders the same tables. *)
let qcheck_resume_total =
  QCheck.Test.make ~count:100
    ~name:"sweep: resume from arbitrary bytes resumes or raises Output_error"
    (QCheck.make ~print:String.escaped
       (QCheck.Gen.delay (fun () ->
            checkpoint_file (Lazy.force resume_header))))
    (fun contents ->
      with_checkpoint contents @@ fun ck ->
      match Sweep.run (resume_cfg ck) with
      | exception Sweep.Output_error _ -> true
      | first ->
        let again = Sweep.run (resume_cfg ck) in
        again.Sweep.completed_shards = again.Sweep.total_shards
        && rendered again = rendered first)

(* What the totality property found: a checksummed shard holding a
   non-finite statistic (which no sweep writes) raised [Invalid_argument]
   from the aggregator, and so did finite cells whose paired ratio or delay
   difference overflows.  The first shard is now dropped and re-run; the
   second is folded with the overflowing pair sample skipped. *)
let test_resume_unwritable_cells () =
  let restored cells =
    with_checkpoint
      (Lazy.force resume_header ^ "\n"
      ^ Sweep.shard_line ~idx:0 ~base:0 cells ^ "\n")
    @@ fun ck ->
    let log = ref "" in
    let log_resume m =
      if String.starts_with ~prefix:"resume:" m then log := m
    in
    let o = Sweep.run { (resume_cfg ck) with Sweep.sw_log = log_resume } in
    Alcotest.(check int) "ran to the end" 3 o.Sweep.completed_shards;
    String.sub !log 0 11
  in
  Alcotest.(check string) "non-finite cell dropped" "resume: 0/3"
    (restored [ Ok (0., nan); Error (Sweep.F_crash 1) ]);
  Alcotest.(check string) "overflowing pair folded" "resume: 1/3"
    (restored [ Ok (1e9, Float.max_float); Ok (Float.min_float, -1.) ])

let test_figure_seed_alignment () =
  (* the sweep's first paths are the 25-path figure's population *)
  let cfg = Sweep.config ~paths:3 ~seed:1819 ~schemes:[ E.Common.cubic ] () in
  let figure = Path_model.sample ~count:3 ~seed:1819 in
  let o = Sweep.run cfg in
  Alcotest.(check int) "3 paths" 3 o.Sweep.paths_done;
  let t = List.hd o.Sweep.tables in
  Alcotest.(check bool) "note names the population" true
    (List.exists
       (fun n ->
         List.length figure = 3
         && String.length n > 0
         &&
         let sub = "seed 1819" in
         let rec has i =
           i + String.length sub <= String.length n
           && (String.sub n i (String.length sub) = sub || has (i + 1))
         in
         has 0)
       t.E.Table.notes)

let suite =
  [ ( "sweep.stats",
      [ Alcotest.test_case "guards" `Quick test_stats_guards;
        Alcotest.test_case "welford empty" `Quick test_welford_empty;
        qtest qcheck_welford;
        Alcotest.test_case "p2 small exact" `Quick test_p2_small_exact;
        qtest qcheck_p2_uniform; qtest qcheck_p2_bimodal ] );
    ( "sweep.path_model",
      [ Alcotest.test_case "prefix property" `Quick test_path_prefix_property;
        Alcotest.test_case "describe" `Quick test_path_describe ] );
    ( "sweep.checkpoint",
      [ qtest qcheck_cell_roundtrip; qtest qcheck_shard_line_roundtrip;
        qtest qcheck_shard_line_total;
        Alcotest.test_case "non-canonical fields rejected" `Quick
          test_shard_line_non_canonical;
        Alcotest.test_case "corruption rejected" `Quick
          test_shard_line_corruption ] );
    ( "sweep.run",
      [ Alcotest.test_case "kill+resume byte-identical" `Slow
          test_resume_byte_identical;
        Alcotest.test_case "torn-trailer recovery" `Slow
          test_resume_corrupt_trailer;
        Alcotest.test_case "half-appended shard line" `Slow
          test_resume_half_appended_line;
        Alcotest.test_case "incompatible header" `Slow
          test_resume_incompatible_header;
        Alcotest.test_case "triage-only byte-identical" `Slow
          test_triage_only_byte_identical;
        Alcotest.test_case "triage-only incomplete checkpoint" `Slow
          test_triage_only_incomplete;
        Alcotest.test_case "crash cells" `Slow test_crash_cells;
        Alcotest.test_case "watchdog timeout cells" `Quick
          test_watchdog_timeout_cells;
        qtest qcheck_resume_total;
        Alcotest.test_case "resume drops unwritable cells" `Quick
          test_resume_unwritable_cells;
        Alcotest.test_case "figure seed alignment" `Slow
          test_figure_seed_alignment ] ) ]
