(* lib/trace: ring semantics, the JSONL codec, sinks, spans, and the end-to-end
   guarantees the tracing layer advertises — deterministic byte-identical
   JSONL for a given seed (whatever the pool size) and an allocation-free
   disabled path. *)

module Trace = Nimbus_trace.Trace
module Event = Nimbus_trace.Event
module Sink = Nimbus_trace.Sink
module Span = Nimbus_trace.Span
module Engine = Nimbus_sim.Engine
module Topology = Nimbus_topology.Topology
module Bottleneck = Nimbus_sim.Bottleneck
module Qdisc = Nimbus_sim.Qdisc
module Flow = Nimbus_cc.Flow
module Nimbus = Nimbus_core.Nimbus
module Z_estimator = Nimbus_core.Z_estimator
module Time = Units.Time
module Rate = Units.Rate

let contains_sub haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i =
    i + nl <= hl
    && (String.equal (String.sub haystack i nl) needle || go (i + 1))
  in
  nl = 0 || go 0

(* --- ring buffer ----------------------------------------------------------- *)

let test_ring_wraparound () =
  let tr = Trace.create ~capacity:4 ~mask:Trace.mask_all () in
  for i = 0 to 9 do
    Trace.z_tick tr ~now:(float_of_int i) ~z:1. ~send:2. ~recv:3. ~base:4.
  done;
  Alcotest.(check int) "recorded caps at capacity" 4 (Trace.recorded tr);
  Alcotest.(check int) "overwritten events counted" 6 (Trace.dropped tr);
  Alcotest.(check int) "total counts everything" 10 (Trace.total tr);
  let times = ref [] in
  Trace.iter tr (fun ~time _ -> times := time :: !times);
  Alcotest.(check (list (float 0.)))
    "keeps the newest events, oldest first" [ 6.; 7.; 8.; 9. ]
    (List.rev !times)

let test_clear_keeps_counters () =
  let tr = Trace.create ~capacity:4 ~mask:Trace.mask_all () in
  for i = 0 to 5 do
    Trace.demoted tr ~now:(float_of_int i)
  done;
  Trace.clear tr;
  Alcotest.(check int) "ring empty" 0 (Trace.recorded tr);
  Alcotest.(check int) "dropped survives clear" 2 (Trace.dropped tr);
  Alcotest.(check int) "total survives clear" 6 (Trace.total tr)

let test_category_filter () =
  let mask = Event.cat_bit Event.Mode in
  let tr = Trace.create ~mask () in
  Alcotest.(check bool) "wants mode" true (Trace.want tr Event.Mode);
  Alcotest.(check bool) "filters detector" false
    (Trace.want tr Event.Detector);
  Trace.z_tick tr ~now:0. ~z:1. ~send:1. ~recv:1. ~base:1.;
  Trace.mode_switch tr ~now:1. ~from_mode:Event.Delay
    ~to_mode:Event.Competitive ~role:Event.Pulser;
  Alcotest.(check int) "only the mode event recorded" 1 (Trace.recorded tr);
  Alcotest.(check bool) "disabled records nothing" false
    (Trace.enabled Trace.disabled);
  Trace.elected Trace.disabled ~now:0. ~p:1.;
  Alcotest.(check int) "disabled stays empty" 0 (Trace.recorded Trace.disabled)

let test_parse_filter () =
  (match Trace.parse_filter "detector,mode" with
   | Ok mask ->
     Alcotest.(check int) "two categories"
       (Event.cat_bit Event.Detector lor Event.cat_bit Event.Mode)
       mask
   | Error e -> Alcotest.fail e);
  (match Trace.parse_filter "all" with
   | Ok mask -> Alcotest.(check int) "all" Trace.mask_all mask
   | Error e -> Alcotest.fail e);
  match Trace.parse_filter "detector,bogus" with
  | Ok _ -> Alcotest.fail "bogus category accepted"
  | Error _ -> ()

(* --- codecs ---------------------------------------------------------------- *)

let sample_events : (float * Event.t) list =
  [ (0.5, Event.Sched { at = 0.75; pending = 12 });
    (1., Event.Pkt_enqueue { flow = 1; seq = 42; qlen = 3000 });
    (1.1, Event.Pkt_deliver { flow = 1; seq = 42; qdelay = 0.0125 });
    (1.2, Event.Pkt_drop { flow = 2; seq = 7; reason = Event.Policer });
    (2., Event.Rate_set { before_mbps = 48.; after_mbps = 0. });
    (2.1, Event.Loss_model { installed = true });
    (3., Event.Fault_fired { fault = Event.F_burst; p1 = 0.05; p2 = 0.4 });
    (3.5, Event.Flow_control { flow = 0; control = Event.C_stop; value = 0. });
    (4., Event.Z_tick
           { z_mbps = 23.75; send_mbps = 48.; recv_mbps = 47.5;
             base_mbps = 24. });
    (5., Event.Window { eta = 2.25; zbar = 20.; tone_lo = 0.5; tone_hi = 3. });
    (5.1, Event.Pulse_phase { freq_hz = 5.; value = 6. });
    (6., Event.Detection
           { eta = 0.75; mode = Event.Delay; role = Event.Watcher;
             evidence = Event.Quiet });
    (6.5, Event.Mode_switch
            { from_mode = Event.Delay; to_mode = Event.Competitive;
              role = Event.Pulser });
    (7., Event.Elected { p = 0.125 });
    (7.5, Event.Demoted);
    (8., Event.Keepalive { tone = 1.5; alive = true });
    (9., Event.Violation { rule = 3 }) ]

(* Each emitter writes its kind code and slots; [Event.decode] must read the
   same event back.  One emitter per [sample_events] entry, in order. *)
let test_ring_roundtrip () =
  let tr = Trace.create ~mask:Trace.mask_all () in
  let sink, collected = Sink.memory () in
  Trace.attach tr sink;
  Trace.sched tr ~now:0.5 ~at:0.75 ~pending:12;
  Trace.pkt_enqueue tr ~now:1. ~flow:1 ~seq:42 ~qlen:3000;
  Trace.pkt_deliver tr ~now:1.1 ~flow:1 ~seq:42 ~qdelay:0.0125;
  Trace.pkt_drop tr ~now:1.2 ~flow:2 ~seq:7 ~reason:Event.Policer;
  Trace.rate_set tr ~now:2. ~before:48. ~after:0.;
  Trace.loss_model tr ~now:2.1 ~installed:true;
  Trace.fault_fired tr ~now:3. ~fault:Event.F_burst ~p1:0.05 ~p2:0.4;
  Trace.flow_control tr ~now:3.5 ~flow:0 ~control:Event.C_stop ~value:0.;
  Trace.z_tick tr ~now:4. ~z:23.75 ~send:48. ~recv:47.5 ~base:24.;
  Trace.window tr ~now:5. ~eta:2.25 ~zbar:20. ~lo:0.5 ~hi:3.;
  Trace.pulse_phase tr ~now:5.1 ~freq:5. ~value:6.;
  Trace.detection tr ~now:6. ~eta:0.75 ~mode:Event.Delay ~role:Event.Watcher
    ~evidence:Event.Quiet;
  Trace.mode_switch tr ~now:6.5 ~from_mode:Event.Delay
    ~to_mode:Event.Competitive ~role:Event.Pulser;
  Trace.elected tr ~now:7. ~p:0.125;
  Trace.demoted tr ~now:7.5;
  Trace.keepalive tr ~now:8. ~tone:1.5 ~alive:true;
  Trace.violation tr ~now:9. ~rule:3;
  Trace.flush tr;
  let got = collected () in
  Alcotest.(check int) "one event per emitter" (List.length sample_events)
    (List.length got);
  List.iter2
    (fun (time, ev) (time', ev') ->
      Alcotest.(check (float 0.)) "time round-trips" time time';
      if ev' <> ev then
        Alcotest.failf "%s did not round-trip through the ring" (Event.name ev))
    sample_events got

let test_float_str () =
  Alcotest.(check string) "short decimal" "0.1" (Event.float_str 0.1);
  Alcotest.(check string) "integer" "48" (Event.float_str 48.);
  Alcotest.(check string) "nan" "nan" (Event.float_str nan);
  Alcotest.(check string) "inf" "inf" (Event.float_str infinity);
  Alcotest.(check string) "-inf" "-inf" (Event.float_str neg_infinity);
  (* shortest-round-trip means parsing the output recovers the bits *)
  List.iter
    (fun x ->
      let s = Event.float_str x in
      if not (Float.equal (float_of_string s) x) then
        Alcotest.failf "%h does not round-trip through %S" x s)
    [ 0.1; 1. /. 3.; 1e-300; 6.02e23; -0.0125; Float.pi ]

let test_json_shape () =
  let buf = Buffer.create 256 in
  Event.to_json buf ~time:6.5
    (Event.Mode_switch
       { from_mode = Event.Delay; to_mode = Event.Competitive;
         role = Event.Pulser });
  Alcotest.(check string) "mode_switch line"
    {|{"t":6.5,"ev":"mode_switch","from":"delay","to":"competitive","role":"pulser"}|}
    (Buffer.contents buf)

(* --- sinks ----------------------------------------------------------------- *)

let test_memory_sink_flush () =
  let tr = Trace.create ~capacity:8 ~mask:Trace.mask_all () in
  let sink, collected = Sink.memory () in
  Trace.attach tr sink;
  Trace.elected tr ~now:1. ~p:0.5;
  Trace.demoted tr ~now:2.;
  Trace.flush tr;
  Alcotest.(check int) "ring drained" 0 (Trace.recorded tr);
  (match collected () with
   | [ (t1, Event.Elected { p }); (t2, Event.Demoted) ] ->
     Alcotest.(check (float 0.)) "first time" 1. t1;
     Alcotest.(check (float 0.)) "second time" 2. t2;
     Alcotest.(check (float 0.)) "payload" 0.5 p
   | evs -> Alcotest.failf "unexpected events (%d)" (List.length evs));
  Trace.elected tr ~now:3. ~p:1.;
  Trace.close tr;
  Alcotest.(check int) "close flushes the rest" 3
    (List.length (collected ()))

let test_summarize_file () =
  let path = Filename.temp_file "nimtrace" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let tr = Trace.create ~mask:Trace.mask_all () in
  let oc = open_out_bin path in
  Trace.attach tr (Sink.jsonl oc);
  Trace.z_tick tr ~now:0.01 ~z:10. ~send:48. ~recv:47. ~base:24.;
  Trace.z_tick tr ~now:0.02 ~z:11. ~send:48. ~recv:47. ~base:24.;
  Trace.mode_switch tr ~now:0.03 ~from_mode:Event.Delay
    ~to_mode:Event.Competitive ~role:Event.Pulser;
  Trace.close tr;
  match Sink.summarize_file path with
  | Error e -> Alcotest.fail e
  | Ok summary ->
    Alcotest.(check bool) "counts z ticks" true (contains_sub summary "z_tick");
    Alcotest.(check bool) "counts the switch" true
      (contains_sub summary "mode_switch")

(* --- Flow.apply ------------------------------------------------------------ *)

let make_link ?(trace = Trace.disabled) () =
  let e = Engine.create { trace } in
  let topo, route =
    Topology.dumbbell e
      { bottleneck =
          { (Bottleneck.Config.default ~rate:(Rate.bps 48e6)
               ~qdisc:(Qdisc.droptail ~capacity_bytes:600_000))
            with trace };
        prop_delay = Time.zero }
  in
  (e, Topology.link_bottleneck (List.hd (Topology.links topo)), topo, route)

let test_flow_apply () =
  let tr = Trace.create ~mask:Trace.mask_all () in
  let _, _, topo, route = make_link ~trace:tr () in
  let f =
    Flow.create_via topo ~route ~cc:(Nimbus_cc.Cubic.make ())
      ~prop_rtt:(Time.ms 50.) ()
  in
  Flow.apply f (Flow.Control.Extra_delay (Time.ms 20.));
  Alcotest.(check (float 1e-9)) "extra delay applied" 0.02
    (Time.to_secs (Flow.extra_delay f));
  (try
     Flow.apply f (Flow.Control.Extra_delay (Time.secs nan));
     Alcotest.fail "non-finite extra delay accepted"
   with Invalid_argument _ -> ());
  Flow.apply f (Flow.Control.Ack_loss (Some (fun () -> false)));
  Flow.apply f (Flow.Control.Ack_loss None);
  Alcotest.(check bool) "running" false (Flow.stopped f);
  Flow.apply f Flow.Control.Stop;
  Alcotest.(check bool) "stopped" true (Flow.stopped f);
  (* each successful mutation left a flow_control event *)
  let controls = ref [] in
  Trace.iter tr (fun ~time:_ ev ->
      match ev with
      | Event.Flow_control { control; _ } -> controls := control :: !controls
      | _ -> ());
  Alcotest.(check int) "four control events" 4 (List.length !controls);
  Alcotest.(check bool) "kinds in order" true
    (List.rev !controls
    = [ Event.C_extra_delay; Event.C_ack_loss; Event.C_ack_off; Event.C_stop ])

(* --- spans ----------------------------------------------------------------- *)

let test_span_aggregation () =
  let now = ref 0. in
  Span.reset ();
  Span.set_clock (fun () -> !now);
  Span.enable ();
  Fun.protect
    ~finally:(fun () ->
      Span.disable ();
      Span.set_clock Sys.time;
      Span.reset ())
  @@ fun () ->
  Span.enter Span.Fft;
  now := 0.25;
  Span.leave Span.Fft;
  Span.enter Span.Fft;
  now := 0.35;
  Span.leave Span.Fft;
  (* unbalanced leave: ignored *)
  Span.leave Span.Spectrum;
  match Span.stats () with
  | [ { Span.s_id = Span.Fft; s_count; s_total; s_max } ] ->
    Alcotest.(check int) "count" 2 s_count;
    Alcotest.(check (float 1e-9)) "total" 0.35 s_total;
    Alcotest.(check (float 1e-9)) "max" 0.25 s_max;
    let report = Span.report () in
    Alcotest.(check bool) "report names the span" true
      (contains_sub report "fft")
  | stats -> Alcotest.failf "unexpected stats (%d entries)" (List.length stats)

let test_span_disabled_noop () =
  Span.reset ();
  Span.enter Span.Fft;
  Span.leave Span.Fft;
  Alcotest.(check int) "nothing accrued while disabled" 0
    (List.length (Span.stats ()))

(* --- allocation ------------------------------------------------------------ *)

(* the acceptance bar: with tracing disabled the emit path allocates zero
   minor words.  Measured as a slope — the per-iteration delta between a
   1k-iteration and an 11k-iteration loop must be exactly zero, which
   cancels the constant cost of the Gc counter reads themselves. *)
let measure_disabled_emits n =
  let tr = Trace.disabled in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    if Trace.want tr Event.Detector then
      Trace.z_tick tr ~now:0. ~z:1. ~send:2. ~recv:3. ~base:4.;
    if Trace.want tr Event.Mode then
      Trace.mode_switch tr ~now:0. ~from_mode:Event.Delay
        ~to_mode:Event.Competitive ~role:Event.Pulser
  done;
  Gc.minor_words () -. w0

let test_disabled_zero_alloc () =
  ignore (measure_disabled_emits 1);
  let d1 = measure_disabled_emits 1_000 in
  let d2 = measure_disabled_emits 11_000 in
  Alcotest.(check (float 0.)) "0 minor words per disabled emit" 0. (d2 -. d1)

(* the enabled path stores into preallocated arrays: recording 10k events
   into a big ring must not grow with the event count either (the guard +
   emitter calls may box a bounded number of floats per call site, so this
   is asserted as a slope too, with the same tolerance: exactly equal) *)
let measure_enabled_emits tr n =
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    if Trace.want tr Event.Detector then
      Trace.z_tick tr ~now:0. ~z:1. ~send:2. ~recv:3. ~base:4.
  done;
  Gc.minor_words () -. w0

let test_enabled_steady_alloc () =
  let tr = Trace.create ~capacity:32768 ~mask:Trace.mask_all () in
  ignore (measure_enabled_emits tr 1);
  let d1 = measure_enabled_emits tr 1_000 in
  let d2 = measure_enabled_emits tr 1_000 in
  Alcotest.(check (float 0.)) "steady enabled emits don't grow the heap" 0.
    (d2 -. d1)

(* --- end-to-end determinism ------------------------------------------------ *)

(* the Fig. 7 scenario: one Nimbus flow on a 48 Mbit/s link, a Cubic flow
   joining at t = 20 s; the detector must switch delay -> competitive *)
let traced_scenario ~mask ~seed =
  let buf = Buffer.create 65536 in
  let tr = Trace.create ~mask () in
  Trace.attach tr (Sink.jsonl_buffer buf);
  let e, _, topo, route = make_link ~trace:tr () in
  let nim =
    Nimbus.create
      { (Nimbus.Config.default ~mu:(Z_estimator.Mu.known (Rate.bps 48e6)))
        with seed; trace = tr }
  in
  let _flow =
    Flow.create_via topo ~route
      ~cc:(Nimbus.cc nim ~now:(fun () -> Engine.now e))
      ~prop_rtt:(Time.ms 50.) ()
  in
  Engine.schedule_at e (Time.secs 20.) (fun () ->
      ignore
        (Flow.create_via topo ~route ~cc:(Nimbus_cc.Cubic.make ())
           ~prop_rtt:(Time.ms 50.) ()));
  Engine.run_until e (Time.secs 32.);
  Trace.close tr;
  Buffer.contents buf

let test_trace_deterministic () =
  let run () = traced_scenario ~mask:Trace.mask_all ~seed:11 in
  let a = run () and b = run () in
  Alcotest.(check bool) "trace is non-trivial" true
    (String.length a > 1000);
  Alcotest.(check bool) "same seed, byte-identical JSONL" true
    (String.equal a b)

let test_golden_mode_switch () =
  let mask = Event.cat_bit Event.Mode in
  let jsonl = traced_scenario ~mask ~seed:11 in
  let lines =
    List.filter
      (fun l -> not (String.equal l ""))
      (String.split_on_char '\n' jsonl)
  in
  let switches =
    List.filter (fun l -> contains_sub l {|"ev":"mode_switch"|}) lines
  in
  (* golden shape: the run contains exactly one switch, delay->competitive,
     as the pulser, after the Cubic flow joins at t = 20 s *)
  (match switches with
   | [ line ] ->
     Alcotest.(check bool) "delay -> competitive as pulser" true
       (contains_sub line
          {|"ev":"mode_switch","from":"delay","to":"competitive","role":"pulser"}|});
     Scanf.sscanf line {|{"t":%f,|} (fun t ->
         Alcotest.(check bool) "switch happens after the join" true
           (t > 20. && t < 32.))
   | _ ->
     Alcotest.failf "expected exactly one mode switch, got %d"
       (List.length switches));
  (* every mode-category line carries a detection or switch *)
  List.iter
    (fun l ->
      if
        not
          (contains_sub l {|"ev":"detection"|}
          || contains_sub l {|"ev":"mode_switch"|})
      then Alcotest.failf "unexpected event in mode filter: %s" l)
    lines

(* the fault matrix collects per-case buffers and concatenates them in input
   order, so the trace bytes cannot depend on how many domains ran it *)
let test_matrix_trace_jobs_independent () =
  let trace_mask =
    Event.cat_bit Event.Mode lor Event.cat_bit Event.Fault
    lor Event.cat_bit Event.Invariant
  in
  let matrix_with_domains domains =
    Nimbus_parallel.Pool.run ~domains (fun pool ->
        Nimbus_experiments.Common.set_pool (Some pool);
        Fun.protect
          ~finally:(fun () -> Nimbus_experiments.Common.set_pool None)
          (fun () ->
            Nimbus_experiments.Exp_faults.run_matrix ~trace_mask
              Nimbus_experiments.Common.quick))
  in
  let seq = matrix_with_domains 1 in
  let par = matrix_with_domains 3 in
  Alcotest.(check bool) "traces are non-trivial" true
    (String.length seq.Nimbus_experiments.Exp_faults.traces > 100);
  Alcotest.(check bool) "--jobs 1 and --jobs 3 byte-identical" true
    (String.equal seq.Nimbus_experiments.Exp_faults.traces
       par.Nimbus_experiments.Exp_faults.traces)

let suite =
  [ ( "trace",
      [ Alcotest.test_case "ring wraparound + drop counting" `Quick
          test_ring_wraparound;
        Alcotest.test_case "clear keeps cumulative counters" `Quick
          test_clear_keeps_counters;
        Alcotest.test_case "category filtering" `Quick test_category_filter;
        Alcotest.test_case "parse_filter" `Quick test_parse_filter;
        Alcotest.test_case "emitters round-trip" `Quick test_ring_roundtrip;
        Alcotest.test_case "float_str shortest round-trip" `Quick
          test_float_str;
        Alcotest.test_case "json line shape" `Quick test_json_shape;
        Alcotest.test_case "memory sink + flush" `Quick test_memory_sink_flush;
        Alcotest.test_case "summarize jsonl file" `Quick test_summarize_file;
        Alcotest.test_case "Flow.apply controls + validation" `Quick
          test_flow_apply;
        Alcotest.test_case "span aggregation (fake clock)" `Quick
          test_span_aggregation;
        Alcotest.test_case "span disabled is a no-op" `Quick
          test_span_disabled_noop;
        Alcotest.test_case "disabled tracing allocates 0 minor words" `Quick
          test_disabled_zero_alloc;
        Alcotest.test_case "enabled steady path allocation-flat" `Quick
          test_enabled_steady_alloc;
        Alcotest.test_case "same seed, byte-identical JSONL" `Slow
          test_trace_deterministic;
        Alcotest.test_case "golden mode-switch trace (Fig. 7 join)" `Slow
          test_golden_mode_switch;
        Alcotest.test_case "fault-matrix trace independent of --jobs" `Slow
          test_matrix_trace_jobs_independent ] ) ]
