(* Repository benchmark: four named workloads, end-to-end metrics as
   medians over closed-loop reps, and a traced run that breaks the cost
   down by layer from outside the library.

   Usage:
     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe --workload all ...      each workload in its own child process
     main.exe --smoke --check-names BENCHMARK.json --workload all --trace 0|1
                                      tiny sizes, 2 reps, hard assertions

   NAME is dumbbell_cubic, nimbus_watchers, parking_lot_1k or path_sweep.
   A run does one discarded warm-up rep, then reps back to back until S
   seconds have passed, with Gc.compact before each scenario.  It prints
   `workload metric value unit` lines, then one JSON object as its last
   line of output. *)

module W = Workloads
module Span = Nimbus_trace.Span

type metric = {
  name : string;
  unit_ : string;
  value : float;
}

let m name unit_ value = { name; unit_; value }

(* --- running reps --------------------------------------------------------- *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable digests : string list;
}

let run_rep tally (w : W.t) ctx =
  match w.run ctx with
  | r ->
    tally.attempted <- tally.attempted + r.attempted;
    tally.failed <- tally.failed + r.failed;
    tally.digests <- r.digest :: tally.digests;
    Some r
  | exception e ->
    Printf.eprintf "%s: rep raised %s\n%!" w.name (Printexc.to_string e);
    tally.attempted <- tally.attempted + 1;
    tally.failed <- tally.failed + 1;
    None

(* reps until [seconds] have passed (at least one), or exactly [n] *)
let reps ?n ~seconds tally w ctx =
  let t0 = Meter.now () in
  let rec go k acc =
    let stop =
      match n with Some n -> k >= n | None -> k > 0 && Meter.since t0 >= seconds
    in
    if stop then List.rev acc
    else
      match run_rep tally w ctx with
      | Some r -> go (k + 1) (r :: acc)
      | None -> go (k + 1) acc
  in
  go 0 []

let words_per_pkt (r : W.rep) = r.cost.words /. float_of_int (max 1 r.pkts)

let pkts_per_s (r : W.rep) = float_of_int r.pkts /. r.cost.wall

(* --- end-to-end metrics --------------------------------------------------- *)

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1e6

let end_to_end (rs : W.rep list) =
  let med f = Meter.median (List.map f rs) in
  [ m "pkts_per_s" "1/s" (med pkts_per_s);
    m "minor_words_per_pkt" "words" (med words_per_pkt);
    m "peak_heap_mb" "MB" (peak_heap_mb ());
    m "setup_s" "s" (Meter.median (List.concat_map (fun r -> r.W.setups) rs)) ]

let quartiles name f rs =
  let xs = List.map f rs in
  Printf.sprintf "# %s q1 %.6g median %.6g q3 %.6g over %d reps" name
    (Meter.quantile xs 0.25) (Meter.quantile xs 0.5) (Meter.quantile xs 0.75)
    (List.length xs)

(* --- per-layer metrics (traced run) --------------------------------------- *)

let span_stat id =
  match List.find_opt (fun s -> s.Span.s_id = id) (Span.stats ()) with
  | Some s -> (float_of_int s.s_count, s.s_total *. 1e9)
  | None -> (0., 0.)

let ratio a b = if b > 0. then a /. b else 0.

let per_layer ~plain_pps ~cal ~meter ~probes (rs : W.rep list) =
  let sumi f = float_of_int (List.fold_left (fun acc r -> acc + f r) 0 rs) in
  let sumf f = List.fold_left (fun acc r -> acc +. f r) 0. rs in
  let n = float_of_int (List.length rs) in
  let pkts = sumi (fun r -> r.W.pkts) in
  let wall = sumf (fun r -> r.W.cost.wall) in
  let per_rep f = ratio (sumi f) n in
  let ticks, tick_ns = span_stat Span.Flow_tick in
  let dticks, dtick_ns = span_stat Span.Detector_tick in
  let spectra, spectrum_ns = span_stat Span.Spectrum in
  let ffts, fft_ns = span_stat Span.Fft in
  let _, drain_ns = span_stat Span.Engine_drain in
  let hooks =
    List.concat_map
      (fun alg ->
        List.mapi
          (fun i h -> (alg, Meter.hook_names.(i), h))
          (Array.to_list (Meter.hooks meter alg)))
      [ Meter.Cubic; Meter.Nimbus ]
  in
  let wrapped_ns =
    List.fold_left (fun acc (_, _, h) -> acc +. fst (Meter.self cal h)) 0. hooks
  in
  let cc =
    List.concat_map
      (fun (alg, hook, (h : Meter.hook)) ->
        let calls = float_of_int h.calls in
        let ns, words = Meter.self cal h in
        let base = Printf.sprintf "cc.%s.%s" (Meter.alg_name alg) hook in
        [ m (base ^ ".per_pkt") "count" (ratio calls pkts);
          m (base ^ ".ns") "ns" (ratio ns calls);
          m (base ^ ".words") "words" (ratio words calls) ])
      hooks
  in
  let pending = List.map float_of_int meter.Meter.pending in
  let p : Probes.all = probes in
  [ m "engine.pending_p50" "count"
      (if pending = [] then 0. else Meter.median pending);
    m "engine.drain_ns_per_pkt" "ns" (ratio drain_ns pkts);
    m "probe.engine.event_ns" "ns" p.engine.ns;
    m "probe.engine.event_words" "words" p.engine.words;
    m "probe.bottleneck.pkt_ns" "ns" p.bottleneck.ns;
    m "probe.bottleneck.pkt_words" "words" p.bottleneck.words;
    m "bottleneck.offered_per_pkt" "count"
      (ratio (sumi (fun r -> r.W.offered)) pkts);
    m "bottleneck.drop_frac" "ratio"
      (ratio (sumi (fun r -> r.W.drops)) (sumi (fun r -> r.W.offered)));
    m "probe.topology.hop_ns" "ns" p.topology.ns;
    m "probe.topology.hop_words" "words" p.topology.words;
    m "topology.hops_per_pkt" "count"
      (ratio pkts (sumi (fun r -> r.W.completed)));
    m "flow.ticks_per_pkt" "count" (ratio ticks pkts);
    m "flow.tick_ns" "ns" (ratio tick_ns ticks);
    m "probe.flow.setup_us" "us" (p.flow_setup.ns /. 1e3) ]
  @ cc
  @ [ m "nimbus.detector_tick_ns" "ns" (ratio dtick_ns dticks);
      m "dsp.spectrum.per_tick" "count" (ratio spectra dticks);
      m "dsp.spectrum.ns" "ns" (ratio spectrum_ns spectra);
      m "dsp.fft.ns" "ns" (ratio fft_ns ffts);
      m "probe.nimbus.tick_ns" "ns" p.tick.ns;
      m "probe.nimbus.watcher_tick_ns" "ns" p.watcher.ns;
      m "probe.nimbus.watcher_tick_words" "words" p.watcher.words;
      m "nimbus.detections" "count" (per_rep (fun r -> r.W.detections));
      m "nimbus.mode_switches" "count" (per_rep (fun r -> r.W.switches));
      m "sweep.failures" "count" (per_rep (fun r -> r.W.failed));
      m "gc.minor_collections" "count" (per_rep (fun r -> r.W.cost.minor_gcs));
      m "gc.major_collections" "count" (per_rep (fun r -> r.W.cost.major_gcs));
      m "gc.promoted_words_per_pkt" "words"
        (ratio (sumf (fun r -> r.W.cost.promoted)) pkts);
      m "trace.overhead_frac" "ratio" (1. -. ratio (ratio pkts wall) plain_pps);
      m "layers.residual_ns_per_pkt" "ns"
        (ratio (drain_ns -. wrapped_ns) pkts) ]

(* --- BENCHMARK.json names ------------------------------------------------- *)

let find_sub s sub from =
  let n = String.length s and k = String.length sub in
  let rec go i =
    if i + k > n then None
    else if String.equal (String.sub s i k) sub then Some i
    else go (i + 1)
  in
  go from

(* the "name" values of the array that follows [key]; the file is this
   benchmark's own, so a flat scan is enough *)
let listed_names json key =
  match find_sub json (Printf.sprintf "%S" key) 0 with
  | None -> []
  | Some i ->
    let start = String.index_from json i '[' in
    let stop = String.index_from json start ']' in
    let rec names from acc =
      match find_sub json "\"name\"" from with
      | Some j when j < stop ->
        let q1 = String.index_from json (String.index_from json j ':') '"' in
        let q2 = String.index_from json (q1 + 1) '"' in
        names q2 (String.sub json (q1 + 1) (q2 - q1 - 1) :: acc)
      | _ -> List.rev acc
    in
    names start []

let same_names a b =
  let sort = List.sort String.compare in
  List.equal String.equal (sort a) (sort b)

(* [None] when BENCHMARK.json lists exactly the workloads and metrics this
   run printed *)
let check_names file ~traced metrics =
  let json = In_channel.with_open_bin file In_channel.input_all in
  let section = if traced then "per_layer" else "end_to_end" in
  let workloads = List.map (fun w -> w.W.name) W.all in
  let names = List.map (fun x -> x.name) metrics in
  if not (same_names (listed_names json "workloads") workloads) then
    Some "workload names differ from BENCHMARK.json"
  else if not (same_names (listed_names json section) names) then
    Some (section ^ " metric names differ from BENCHMARK.json")
  else None

(* --- one workload --------------------------------------------------------- *)

type opts = {
  seed : int;
  seconds : float;
  traced : bool;
  smoke : bool;
  names_file : string option;
}

let traced_metrics o tally w ctx plain =
  let cal = Meter.calibrate () in
  let meter = Meter.create () in
  Span.set_clock (fun () -> Int64.to_float (Meter.now ()) *. 1e-9);
  Span.reset ();
  Span.enable ();
  let traced =
    Fun.protect ~finally:Span.disable (fun () ->
        reps
          ?n:(if o.smoke then Some 1 else None)
          ~seconds:(o.seconds /. 2.) tally w
          { ctx with W.meter = Some meter })
  in
  let probes = Probes.run ~batches:(if o.smoke then 2 else 30) in
  let plain_pps = Meter.median (List.map pkts_per_s plain) in
  (traced, per_layer ~plain_pps ~cal ~meter ~probes traced)

let json_line ~correct ~attempted ~failed metrics =
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun x ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" x.name
              (num x.value) x.unit_)
          metrics))

let run_workload o (w : W.t) =
  let tally = { attempted = 0; failed = 0; digests = [] } in
  let ctx = { W.seed = o.seed; smoke = o.smoke; meter = None } in
  let problems = ref [] in
  let expect ok what = if not ok then problems := what :: !problems in
  expect (w.check ctx) "benchmark scenario differs from the experiment's";
  ignore (reps ~n:1 ~seconds:0. tally w ctx);
  let plain =
    reps
      ?n:(if o.smoke then Some (if o.traced then 1 else 2) else None)
      ~seconds:(if o.traced then o.seconds /. 2. else o.seconds)
      tally w ctx
  in
  expect (plain <> []) "no rep completed";
  let metrics =
    if plain = [] then []
    else if o.traced then begin
      let traced, metrics = traced_metrics o tally w ctx plain in
      expect (traced <> []) "no traced rep completed";
      metrics
    end
    else begin
      List.iter print_endline
        [ quartiles "pkts_per_s" pkts_per_s plain;
          quartiles "minor_words_per_pkt" words_per_pkt plain ];
      end_to_end plain
    end
  in
  expect (tally.failed = 0) "failed reps";
  (match tally.digests with
   | d :: rest ->
     expect (List.for_all (String.equal d) rest) "rep digests differ"
   | [] -> ());
  expect
    (List.for_all (fun x -> Float.is_finite x.value) metrics)
    "non-finite metric";
  (* a seeded rep allocates and delivers exactly the same every time *)
  if o.smoke && not o.traced then
    expect
      (match plain with
       | [ a; b ] -> a.pkts = b.pkts && Float.equal a.cost.words b.cost.words
       | _ -> false)
      "rep counts differ";
  Option.iter
    (fun f ->
      Option.iter (expect false) (check_names f ~traced:o.traced metrics))
    o.names_file;
  List.iter (Printf.eprintf "%s: %s\n" w.name) (List.rev !problems);
  List.iter (Printf.printf "# input %s\n") (w.inputs ctx);
  List.iter
    (Printf.printf "# digest %s\n")
    (List.sort_uniq String.compare tally.digests);
  List.iter
    (fun x -> Printf.printf "%s %s %.9g %s\n" w.name x.name x.value x.unit_)
    metrics;
  let correct = !problems = [] in
  print_endline
    (json_line ~correct ~attempted:tally.attempted ~failed:tally.failed
       metrics);
  if o.smoke && not correct then 1 else 0

(* --workload all: one fresh child process per workload, one after another *)
let run_all o =
  List.fold_left
    (fun code (w : W.t) ->
      let args =
        [ Sys.executable_name; "--workload"; w.name; "--seed";
          string_of_int o.seed; "--seconds"; Printf.sprintf "%g" o.seconds;
          "--trace"; (if o.traced then "1" else "0") ]
        @ (if o.smoke then [ "--smoke" ] else [])
        @ match o.names_file with Some f -> [ "--check-names"; f ] | None -> []
      in
      flush stdout;
      let pid =
        Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin
          Unix.stdout Unix.stderr
      in
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> code
      | _ -> 1)
    0 W.all

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and smoke = ref false and names_file = ref None in
  let usage =
    "main.exe --workload NAME|all [--seed N] [--seconds S] [--trace 0|1] \
     [--smoke] [--check-names BENCHMARK.json]"
  in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run, or all");
      ("--seed", Arg.Set_int seed, "N seed for the inputs (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measured seconds (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run (default 0)");
      ("--smoke", Arg.Set smoke, " tiny sizes, 2 reps, assertions");
      ( "--check-names",
        Arg.String (fun f -> names_file := Some f),
        "FILE check printed names against BENCHMARK.json" ) ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let bad msg =
    prerr_endline msg;
    prerr_endline usage;
    exit 2
  in
  if !trace <> 0 && !trace <> 1 then bad "--trace must be 0 or 1";
  if not (!seconds > 0.) then bad "--seconds must be positive";
  let o =
    { seed = !seed; seconds = !seconds; traced = !trace = 1; smoke = !smoke;
      names_file = !names_file }
  in
  if String.equal !workload "all" then exit (run_all o)
  else
    match W.find !workload with
    | Some w -> exit (run_workload o w)
    | None ->
      bad
        (Printf.sprintf "unknown workload %S; one of: all, %s" !workload
           (String.concat ", " (List.map (fun w -> w.W.name) W.all)))
