(* Bechamel micro-benchmarks of the primitives every experiment leans on:
   the FFT plan kernels, the reusable-state spectrum pipeline, the Goertzel
   single-bin filter, the elasticity detector tick, the ẑ estimator,
   event-queue churn, and one simulated
   packet-second of a Cubic flow.  Each benchmark is measured against both
   the monotonic clock and the minor allocator, and the results can be
   dumped as JSON for per-PR perf tracking. *)

(* aliased before the opens: Toolkit also exposes a [Monotonic_clock]
   measure, which would otherwise shadow the raw clock *)
module Clock = Monotonic_clock

open Bechamel
open Toolkit

let pi = 4.0 *. atan 1.0

let signal n =
  Array.init n (fun i ->
      sin (2. *. pi *. 5. *. float_of_int i /. 100.)
      +. (0.3 *. sin (2. *. pi *. 17.3 *. float_of_int i /. 100.)))

(* the plan-based transforms refill the buffer from a pristine signal each
   run; n = 500 runs the Bluestein kernel, n = 512 the radix-2 one *)
let fft_plan n =
  let xs = signal n in
  let plan = Nimbus_dsp.Fft.Plan.create n in
  let buf = Nimbus_dsp.Cbuf.create n in
  Test.make
    ~name:(Printf.sprintf "fft.plan.%d" n)
    (Staged.stage (fun () ->
         Array.blit xs 0 buf.Nimbus_dsp.Cbuf.re 0 n;
         Array.fill buf.Nimbus_dsp.Cbuf.im 0 n 0.;
         Nimbus_dsp.Fft.Plan.execute plan buf))

let spectrum_analyze_into_500 =
  let xs = signal 500 in
  let st =
    Nimbus_dsp.Spectrum.create_state ~window:Nimbus_dsp.Window.Hann
      ~detrend:`Linear ~n:500 ~sample_rate:(Units.Freq.hz 100.) ()
  in
  Test.make ~name:"spectrum.analyze_into.500"
    (Staged.stage (fun () -> ignore (Nimbus_dsp.Spectrum.analyze_into st xs)))

let goertzel_500 =
  let xs = signal 500 in
  Test.make ~name:"goertzel.500"
    (Staged.stage (fun () ->
         ignore (Nimbus_dsp.Goertzel.magnitude xs ~sample_rate:(Units.Freq.hz 100.)
              ~freq:5.)))

(* the steady-state detector tick: one new sample plus one eta readout.
   The detector is pre-tuned (one eta call before measurement) so every
   measured run takes the streaming sliding-bank path; what the first call
   costs is timed separately by elasticity.eta.fft.500 below. *)
let filled_detector () =
  let det = Nimbus_core.Elasticity.create () in
  let xs = signal 500 in
  Array.iter (fun x -> Nimbus_core.Elasticity.add_sample det x) xs;
  det

let elasticity_eta =
  let det = filled_detector () in
  ignore (Nimbus_core.Elasticity.eta det ~freq:(Units.Freq.hz 5.));
  Test.make ~name:"elasticity.eta.500"
    (Staged.stage (fun () ->
         Nimbus_core.Elasticity.add_sample det 0.1;
         ignore (Nimbus_core.Elasticity.eta det ~freq:(Units.Freq.hz 5.))))

(* the same tick under its leaderboard name, so the JSON trajectory carries
   an explicitly-streaming entry alongside the historical elasticity.eta.500
   (which measured the Plan-FFT path before the sliding bank existed) *)
let elasticity_eta_streaming =
  let det = filled_detector () in
  ignore (Nimbus_core.Elasticity.eta det ~freq:(Units.Freq.hz 5.));
  Test.make ~name:"elasticity.eta.streaming.500"
    (Staged.stage (fun () ->
         Nimbus_core.Elasticity.add_sample det 0.1;
         ignore (Nimbus_core.Elasticity.eta det ~freq:(Units.Freq.hz 5.))))

(* the same tick forced down the full Plan-FFT reference path — the cost
   every eta readout used to pay, kept for the old-vs-new delta table *)
let elasticity_eta_fft =
  let det = filled_detector () in
  Test.make ~name:"elasticity.eta.fft.500"
    (Staged.stage (fun () ->
         Nimbus_core.Elasticity.add_sample det 0.1;
         ignore
           (Nimbus_core.Elasticity.eta_reference det ~freq:(Units.Freq.hz 5.))))

let z_estimate =
  Test.make ~name:"z_estimator.estimate"
    (Staged.stage (fun () ->
         ignore
           (Nimbus_core.Z_estimator.estimate ~mu:(Units.Rate.bps 96e6)
              ~send_rate:(Units.Rate.bps 24e6)
              ~recv_rate:(Units.Rate.bps 20e6))))

(* the engine is created once and reused across runs, so what this measures
   is the steady-state churn of scheduling and draining 1000 events — which
   the calendar queue and the unboxed-key overflow heap keep allocation-free
   once their slot arrays have grown (the old binary heap's boxed keys made
   this a steady source of minor words).  Simulated time keeps advancing
   across runs; each run drains everything it scheduled. *)
let event_queue =
  let e = Nimbus_sim.Engine.create Nimbus_sim.Engine.Config.default in
  (* delays precomputed so the loop does not time the boxing of its own
     [Units.Time.secs] arguments *)
  let delays = Array.init 97 (fun i -> Units.Time.secs (float_of_int i /. 100.)) in
  Test.make ~name:"engine.schedule+run.1000"
    (Staged.stage (fun () ->
         for i = 0 to 999 do
           Nimbus_sim.Engine.schedule_in e delays.(i mod 97) (fun () -> ())
         done;
         let stop =
           Units.Time.add (Nimbus_sim.Engine.now e) (Units.Time.secs 1.)
         in
         Nimbus_sim.Engine.run_until e stop))

(* the 48 Mbit/s, 600 kB-buffer dumbbell both simulated-run measurements
   below share *)
let dumbbell_48 e =
  Nimbus_topology.Topology.dumbbell e
    (Nimbus_topology.Topology.Link.Config.default ~rate:(Units.Rate.bps 48e6)
       ~qdisc:(Nimbus_sim.Qdisc.droptail ~capacity_bytes:600_000))

let sim_packet_second =
  Test.make ~name:"sim.cubic-flow.1s@48Mbps"
    (Staged.stage (fun () ->
         let e = Nimbus_sim.Engine.create Nimbus_sim.Engine.Config.default in
         let topo, route = dumbbell_48 e in
         let _f =
           Nimbus_cc.Flow.create_via topo ~route ~cc:(Nimbus_cc.Cubic.make ())
             ~prop_rtt:(Units.Time.ms 50.) ()
         in
         Nimbus_sim.Engine.run_until e (Units.Time.secs 1.0)))

(* the full Nimbus controller tick (ẑ sample + detector + pulse bookkeeping)
   driven synthetically at 10 ms cadence, with tracing off vs. on — the pair
   the --assert-trace-overhead gate compares.  The traced collector has
   every category enabled and no sink, so the measured cost is pure
   record-into-ring plus the values computed only to be recorded. *)
let make_tick ~traced =
  let module Nimbus = Nimbus_core.Nimbus in
  let trace =
    if traced then
      Nimbus_trace.Trace.create ~mask:Nimbus_trace.Trace.mask_all ()
    else Nimbus_trace.Trace.disabled
  in
  let now = ref 0. in
  let nim =
    Nimbus.create
      { (Nimbus.Config.default
           ~mu:(Nimbus_core.Z_estimator.Mu.known (Units.Rate.bps 96e6)))
        with trace }
  in
  let cc = Nimbus.cc nim ~now:(fun () -> Units.Time.secs !now) in
  let tick = Option.get cc.Nimbus_cc.Cc_types.on_tick in
  fun () ->
    now := !now +. 0.01;
    tick
      { Nimbus_cc.Cc_types.now = Units.Time.secs !now;
        send_rate = Units.Rate.bps 48e6; recv_rate = Units.Rate.bps 46e6;
        rtt = Units.Time.ms 55.; srtt = Units.Time.ms 55.;
        min_rtt = Units.Time.ms 50.; inflight_bytes = 300_000;
        delivered_bytes = 0; lost_packets = 0 }

let nimbus_tick ~traced =
  let tick = make_tick ~traced in
  Test.make
    ~name:(if traced then "nimbus.tick.traced" else "nimbus.tick.plain")
    (Staged.stage tick)

let benchmarks =
  Test.make_grouped ~name:"nimbus"
    [ fft_plan 500; fft_plan 512; spectrum_analyze_into_500; goertzel_500;
      elasticity_eta; elasticity_eta_streaming; elasticity_eta_fft; z_estimate;
      event_queue; sim_packet_second; nimbus_tick ~traced:false;
      nimbus_tick ~traced:true ]

let estimate results name =
  match Hashtbl.find_opt results name with
  | None -> nan
  | Some r -> (
    match Analyze.OLS.estimates r with
    | Some (t :: _) -> t
    | Some [] | None -> nan)

(* span profile of one representative simulated run: a Nimbus flow against
   the 48 Mbit/s link for 10 simulated seconds, with Span scopes (FFT,
   spectrum, detector tick, engine drain, flow tick) enabled *)
let span_profile () =
  Nimbus_trace.Span.reset ();
  Nimbus_trace.Span.enable ();
  Fun.protect ~finally:Nimbus_trace.Span.disable (fun () ->
      let module Nimbus = Nimbus_core.Nimbus in
      let e = Nimbus_sim.Engine.create Nimbus_sim.Engine.Config.default in
      let topo, route = dumbbell_48 e in
      let nim =
        Nimbus.create
          (Nimbus.Config.default
             ~mu:(Nimbus_core.Z_estimator.Mu.known (Units.Rate.bps 48e6)))
      in
      let _f =
        Nimbus_cc.Flow.create_via topo ~route
          ~cc:(Nimbus.cc nim ~now:(fun () -> Nimbus_sim.Engine.now e))
          ~prop_rtt:(Units.Time.ms 50.) ()
      in
      Nimbus_sim.Engine.run_until e (Units.Time.secs 10.));
  let report = Nimbus_trace.Span.report () in
  Nimbus_trace.Span.reset ();
  report

let run ?json ?assert_trace_overhead () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let clock = Instance.monotonic_clock in
  let alloc = Instance.minor_allocated in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg [ clock; alloc ] benchmarks in
  let times = Analyze.all ols clock raw in
  let allocs = Analyze.all ols alloc raw in
  let names =
    List.sort String.compare
      (Hashtbl.fold (fun name _ acc -> name :: acc) times [])
  in
  print_endline "== Bechamel micro-benchmarks ==";
  Printf.printf "%-36s %14s %18s\n" "" "ns/run" "minor words/run";
  List.iter
    (fun name ->
      Printf.printf "%-36s %14.1f %18.1f\n" name (estimate times name)
        (estimate allocs name))
    names;
  print_newline ();
  print_endline "== Span profile (nimbus flow, 10 simulated seconds) ==";
  let profile = span_profile () in
  print_string (if String.equal profile "" then "(no spans fired)\n" else profile);
  (match json with
   | None -> ()
   | Some path ->
     let oc = open_out path in
     let num v = if Float.is_finite v then Printf.sprintf "%.3f" v else "null" in
     output_string oc "{\n  \"benchmarks\": [\n";
     let last = List.length names - 1 in
     List.iteri
       (fun i name ->
         Printf.fprintf oc
           "    {\"name\": %S, \"ns_per_run\": %s, \"minor_words_per_run\": \
            %s}%s\n"
           name
           (num (estimate times name))
           (num (estimate allocs name))
           (if i = last then "" else ","))
       names;
     output_string oc "  ]\n}\n";
     close_out oc;
     Printf.printf "wrote %s\n%!" path);
  (* the tracing-cost gate: full-mask (sinkless) tracing of the controller
     tick must stay within the given percentage of the untraced tick.  A
     single sequential measurement carries ±10% noise from CPU-frequency
     drift (the later side always loses) and from per-instance memory-layout
     luck, so the gate hand-rolls a robust comparison: several independent
     instances per side, measured in interleaved batches, taking the best
     batch each side ever achieves — and one whole-measurement retry before
     failing, so a single unlucky layout draw cannot flake the gate while a
     genuine regression still fails both attempts.

     The percentage budget alone stopped being meaningful once the streaming
     detector dropped the plain tick under a microsecond: full-mask tracing
     records a fixed set of events per tick (~1 µs of ring writes), and a
     fixed absolute cost over a shrinking base is a growing percentage that
     signals nothing.  So the gate fails only when the traced tick exceeds
     the plain tick by more than [pct] percent AND by more than an absolute
     per-tick floor covering that fixed record cost. *)
  match assert_trace_overhead with
  | None -> 0
  | Some pct ->
    let floor_ns = 1500. in
    let measure () =
      let instances = 4 and batch = 10_000 and rounds = 6 in
      let plains = List.init instances (fun _ -> make_tick ~traced:false) in
      let traceds = List.init instances (fun _ -> make_tick ~traced:true) in
      List.iter (fun f -> for _ = 1 to batch do f () done) (plains @ traceds);
      let time_batch f =
        let t0 = Clock.now () in
        for _ = 1 to batch do f () done;
        Int64.to_float (Int64.sub (Clock.now ()) t0) /. float_of_int batch
      in
      let plain = ref infinity and traced = ref infinity in
      for _ = 1 to rounds do
        List.iter (fun f -> plain := Float.min !plain (time_batch f)) plains;
        List.iter (fun f -> traced := Float.min !traced (time_batch f)) traceds
      done;
      (!plain, !traced)
    in
    let verdict attempt =
      let plain, traced = measure () in
      if not (Float.is_finite plain && Float.is_finite traced) || plain <= 0.
      then begin
        Printf.printf "trace overhead: tick measurements unavailable\n%!";
        None
      end
      else begin
        let delta = traced -. plain in
        let overhead = delta /. plain *. 100. in
        Printf.printf
          "trace overhead%s: plain %.1f ns, traced %.1f ns -> %+.1f%% \
           (+%.0f ns; budget %.1f%% or %.0f ns)\n%!"
          attempt plain traced overhead delta pct floor_ns;
        Some (overhead, delta)
      end
    in
    let ok (overhead, delta) = overhead <= pct || delta <= floor_ns in
    (match verdict "" with
     | None -> 1
     | Some v when ok v -> 0
     | Some _ -> (
       match verdict " (retry)" with
       | Some v when ok v -> 0
       | Some _ | None -> 1))
