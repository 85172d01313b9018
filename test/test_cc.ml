(* Tests for the flow engine and every congestion-control algorithm.  These
   run short real simulations, so each assertion targets a coarse behavioural
   invariant rather than an exact number. *)

module Engine = Nimbus_sim.Engine
module Topology = Nimbus_topology.Topology
module Bottleneck = Nimbus_sim.Bottleneck
module Qdisc = Nimbus_sim.Qdisc
module Rng = Nimbus_sim.Rng
module Time = Units.Time
module Rate = Units.Rate
module B = Units.Bytes
open Nimbus_cc

let check_close ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let make_link ?(rate_bps = 24e6) ?(buffer_s = 0.1) () =
  let e = Engine.create Engine.Config.default in
  let capacity = int_of_float (rate_bps *. buffer_s /. 8.) in
  let topo, route =
    Topology.dumbbell e
      (Topology.Link.Config.default ~rate:(Rate.bps rate_bps)
         ~qdisc:(Qdisc.droptail ~capacity_bytes:capacity))
  in
  (e, Topology.link_bottleneck (List.hd (Topology.links topo)), topo, route)

let rtt50 = Time.ms 50.

let throughput flow ~seconds =
  float_of_int (Flow.received_bytes flow * 8) /. seconds

(* --- flow engine --------------------------------------------------------- *)

let test_flow_fills_link () =
  let e, _, topo, route = make_link () in
  let f = Flow.create_via topo ~route ~cc:(Cubic.make ()) ~prop_rtt:rtt50 () in
  Engine.run_until e (Time.secs 20.);
  let tput = throughput f ~seconds:20. in
  Alcotest.(check bool) "utilizes >90%" true (tput > 0.9 *. 24e6);
  Alcotest.(check bool) "not above link" true (tput <= 24e6 *. 1.01)

let test_flow_min_rtt_is_propagation () =
  let e, _, topo, route = make_link () in
  let f = Flow.create_via topo ~route ~cc:(Cubic.make ()) ~prop_rtt:rtt50 () in
  Engine.run_until e (Time.secs 10.);
  (* min RTT = propagation + one serialization *)
  let expected = 0.05 +. (1500. *. 8. /. 24e6) in
  check_close ~eps:1e-4 "min rtt" expected (Time.to_secs (Flow.min_rtt f))

let test_finite_flow_completes () =
  let e, _, topo, route = make_link () in
  let completed = ref None in
  let f =
    Flow.create_via topo ~route ~cc:(Cubic.make ()) ~prop_rtt:rtt50
      ~source:(Flow.Finite 150_000)
      ~on_complete:(fun fl -> completed := Flow.completion_time fl)
      ()
  in
  Engine.run_until e (Time.secs 10.);
  Alcotest.(check bool) "completed" true (!completed <> None);
  Alcotest.(check bool) "received full size" true
    (Flow.received_bytes f >= 150_000);
  (* 100 packets at 24 Mbps with 50 ms RTT: at least a couple RTTs *)
  let fct = Time.to_secs (Option.get !completed) in
  Alcotest.(check bool) "fct sane" true (fct > 0.05 && fct < 5.)

(* a completed transfer with nothing in flight stops ticking: the engine
   drains instead of running a 100 ms RTO tick until the end of time *)
let test_finished_flow_drains () =
  let e, _, topo, route = make_link () in
  let f =
    Flow.create_via topo ~route ~cc:(Cubic.make ()) ~prop_rtt:rtt50
      ~source:(Flow.Finite 150_000) ~tick_interval:(Time.ms 100.) ()
  in
  Engine.run_until e (Time.secs 10.);
  Alcotest.(check bool) "completed" true (Flow.completion_time f <> None);
  Alcotest.(check int) "no events left" 0 (Engine.pending e)

let test_rejects_bad_prop_rtt () =
  let _, _, topo, route = make_link () in
  List.iter
    (fun rtt ->
      match
        Flow.create_via topo ~route ~cc:(Cubic.make ())
          ~prop_rtt:(Time.secs rtt) ()
      with
      | _ -> Alcotest.failf "prop_rtt %g accepted" rtt
      | exception Invalid_argument _ -> ())
    [ nan; infinity; -0.01 ]

let test_app_limited_respects_supply () =
  let e, _, topo, route = make_link () in
  let f =
    Flow.create_via topo ~route ~cc:(Cubic.make ()) ~prop_rtt:rtt50
      ~source:Flow.App_limited ()
  in
  Flow.supply f 30_000;
  Engine.run_until e (Time.secs 5.);
  Alcotest.(check int) "sends exactly the supplied bytes" 30_000
    (Flow.received_bytes f)

let test_loss_detection_and_retransmit () =
  (* tiny buffer forces drops; the finite transfer must still complete *)
  let e, _, topo, route = make_link ~buffer_s:0.01 () in
  let f =
    Flow.create_via topo ~route ~cc:(Reno.make ()) ~prop_rtt:rtt50
      ~source:(Flow.Finite 600_000) ()
  in
  Engine.run_until e (Time.secs 30.);
  Alcotest.(check bool) "losses happened" true (Flow.lost_packets f > 0);
  Alcotest.(check bool) "still completed" true
    (Flow.completion_time f <> None)

let test_rate_measurement_tracks_pacing () =
  (* a CBR flow paced at 8 Mbps must measure S ~ R ~ 8 Mbps *)
  let e, _, topo, route = make_link () in
  let f =
    Flow.create_via topo ~route
      ~cc:(Simple_cc.const_rate ~rate:(Rate.bps 8e6))
      ~prop_rtt:rtt50 ()
  in
  Engine.run_until e (Time.secs 10.);
  let s = Rate.to_bps (Flow.send_rate f)
  and r = Rate.to_bps (Flow.recv_rate f) in
  Alcotest.(check bool) "S close to 8M" true (Float.abs (s -. 8e6) < 0.8e6);
  Alcotest.(check bool) "R close to 8M" true (Float.abs (r -. 8e6) < 0.8e6)

let test_flow_stop () =
  let e, _, topo, route = make_link () in
  let f = Flow.create_via topo ~route ~cc:(Cubic.make ()) ~prop_rtt:rtt50 () in
  Engine.schedule_at e (Time.secs 5.) (fun () -> Flow.apply f Flow.Control.Stop);
  Engine.run_until e (Time.secs 6.);
  let bytes_at_6 = Flow.received_bytes f in
  Engine.run_until e (Time.secs 10.);
  Alcotest.(check bool) "stopped flow sends (almost) nothing more" true
    (Flow.received_bytes f - bytes_at_6 < 20 * 1500);
  Alcotest.(check bool) "stopped" true (Flow.stopped f)

let test_delayed_start () =
  let e, _, topo, route = make_link () in
  let f =
    Flow.create_via topo ~route ~cc:(Cubic.make ()) ~prop_rtt:rtt50
      ~start:(Time.secs 5.) ()
  in
  Engine.run_until e (Time.secs 4.);
  Alcotest.(check int) "nothing before start" 0 (Flow.received_bytes f);
  Engine.run_until e (Time.secs 10.);
  Alcotest.(check bool) "transfers after start" true
    (Flow.received_bytes f > 100_000)

let test_two_flows_share () =
  let e, _, topo, route = make_link ~rate_bps:48e6 () in
  let f1 = Flow.create_via topo ~route ~cc:(Cubic.make ()) ~prop_rtt:rtt50 () in
  let f2 = Flow.create_via topo ~route ~cc:(Cubic.make ()) ~prop_rtt:rtt50 () in
  Engine.run_until e (Time.secs 60.);
  let t1 = throughput f1 ~seconds:60. and t2 = throughput f2 ~seconds:60. in
  let jain = Nimbus_metrics.Fairness.jain [| t1; t2 |] in
  Alcotest.(check bool) "jain > 0.9" true (jain > 0.9);
  Alcotest.(check bool) "link filled" true (t1 +. t2 > 0.9 *. 48e6)

let test_fresh_ids_unique () =
  let e = Engine.create Engine.Config.default in
  let a = Engine.fresh_flow_id e in
  let b = Engine.fresh_flow_id e in
  Alcotest.(check int) "distinct, dense" (a + 1) b;
  (* engine-scoped, not process-global: a fresh engine restarts at the same
     id, which is what keeps traced runs byte-identical across repeats *)
  let e2 = Engine.create Engine.Config.default in
  Alcotest.(check int) "fresh engine restarts the namespace" a
    (Engine.fresh_flow_id e2)

(* --- individual algorithms ----------------------------------------------- *)

let test_reno_halves_on_loss () =
  let r = Reno.create ~mss:1500 ~initial_cwnd:10 () in
  let cc = Reno.cc r in
  (* leave slow start by faking a loss, then grow in CA *)
  cc.Cc_types.on_loss
    { Cc_types.now = Time.secs 1.; seq = 0; bytes = 1500; inflight_bytes = 0;
      kind = `Dupack };
  let after_first = B.to_float (Reno.cwnd_bytes r) in
  cc.Cc_types.on_loss
    { Cc_types.now = Time.secs 10.; seq = 0; bytes = 1500; inflight_bytes = 0;
      kind = `Dupack };
  check_close "halves"
    (Float.max (after_first /. 2.) 3000.)
    (B.to_float (Reno.cwnd_bytes r))

let test_reno_slow_start_doubles () =
  let r = Reno.create ~mss:1500 ~initial_cwnd:2 () in
  let cc = Reno.cc r in
  let ack now =
    cc.Cc_types.on_ack
      { Cc_types.now = Time.secs now; seq = 0; bytes = 1500; rtt = rtt50;
        min_rtt = rtt50; srtt = rtt50; inflight_bytes = 0;
        delivered_bytes = 0 }
  in
  ack 0.1;
  ack 0.2;
  check_close "2 acks add 2 mss" 6000. (B.to_float (Reno.cwnd_bytes r))

let test_reno_timeout_resets () =
  let r = Reno.create ~mss:1500 ~initial_cwnd:20 () in
  (Reno.cc r).Cc_types.on_loss
    { Cc_types.now = Time.secs 1.; seq = 0; bytes = 1500; inflight_bytes = 0;
      kind = `Timeout };
  check_close "collapses to 2 mss" 3000. (B.to_float (Reno.cwnd_bytes r))

let test_cubic_reduces_by_beta () =
  let c = Cubic.create ~mss:1500 ~initial_cwnd:100 () in
  (Cubic.cc c).Cc_types.on_loss
    { Cc_types.now = Time.secs 5.; seq = 0; bytes = 1500; inflight_bytes = 0;
      kind = `Dupack };
  check_close "beta cut" (150_000. *. 0.7) (B.to_float (Cubic.cwnd_bytes c))

let test_cubic_grows_toward_wmax () =
  let c = Cubic.create ~mss:1500 ~initial_cwnd:100 () in
  let cc = Cubic.cc c in
  cc.Cc_types.on_loss
    { Cc_types.now = Time.zero; seq = 0; bytes = 1500; inflight_bytes = 0;
      kind = `Dupack };
  let low = B.to_float (Cubic.cwnd_bytes c) in
  (* feed acks over simulated seconds; window must recover toward w_max *)
  for i = 1 to 2000 do
    cc.Cc_types.on_ack
      { Cc_types.now = Time.secs (float_of_int i /. 100.); seq = i;
        bytes = 1500; rtt = rtt50; min_rtt = rtt50; srtt = rtt50;
        inflight_bytes = 0; delivered_bytes = 0 }
  done;
  Alcotest.(check bool) "recovers above the cut" true
    (B.to_float (Cubic.cwnd_bytes c) > low);
  Alcotest.(check bool) "reaches w_max region" true
    (B.to_float (Cubic.cwnd_bytes c) > 140_000.)

let test_cubic_reset_cwnd () =
  let c = Cubic.create () in
  Cubic.reset_cwnd c (B.bytes 99_000.);
  check_close "reset" 99_000. (B.to_float (Cubic.cwnd_bytes c))

let test_vegas_keeps_small_queue () =
  let e, bn, topo, route = make_link () in
  let f = Flow.create_via topo ~route ~cc:(Vegas.make ()) ~prop_rtt:rtt50 () in
  Engine.run_until e (Time.secs 30.);
  (* alpha..beta packets of backlog: at 24 Mbps that is < 10 ms of queue *)
  Alcotest.(check bool) "throughput high" true
    (throughput f ~seconds:30. > 0.85 *. 24e6);
  Alcotest.(check bool) "queue short" true
    (Time.to_secs (Bottleneck.queue_delay bn) < 0.012)

let test_vegas_starves_against_cubic () =
  let e, _, topo, route = make_link ~rate_bps:48e6 () in
  let v = Flow.create_via topo ~route ~cc:(Vegas.make ()) ~prop_rtt:rtt50 () in
  let c = Flow.create_via topo ~route ~cc:(Cubic.make ()) ~prop_rtt:rtt50 () in
  Engine.run_until e (Time.secs 40.);
  let tv = throughput v ~seconds:40. and tc = throughput c ~seconds:40. in
  Alcotest.(check bool) "vegas gets far less than cubic" true (tv < tc /. 2.)

let test_copa_default_mode_low_delay () =
  let e, bn, topo, route = make_link () in
  let f =
    Flow.create_via topo ~route ~cc:(Copa.make ~switching:false ())
      ~prop_rtt:rtt50 ()
  in
  Engine.run_until e (Time.secs 30.);
  Alcotest.(check bool) "throughput decent" true
    (throughput f ~seconds:30. > 0.7 *. 24e6);
  Alcotest.(check bool) "queue moderate" true
    (Time.to_secs (Bottleneck.queue_delay bn) < 0.05)

let copa_competitive_fraction ~cbr_rate =
  let e, _, topo, route = make_link ~rate_bps:96e6 () in
  let copa = Copa.create ~switching:true () in
  ignore (Flow.create_via topo ~route ~cc:(Copa.cc copa) ~prop_rtt:rtt50 ());
  ignore (Nimbus_traffic.Source.cbr_via topo ~route
      ~rate:(Rate.bps cbr_rate) ());
  let competitive_samples = ref 0 and samples = ref 0 in
  Engine.every e ~dt:(Time.ms 100.) ~start:(Time.secs 10.)
    ~until:(Time.secs 90.) (fun () ->
      incr samples;
      if Copa.in_competitive_mode copa then incr competitive_samples);
  Engine.run_until e (Time.secs 90.);
  float_of_int !competitive_samples /. float_of_int !samples

let test_copa_sticks_competitive_under_heavy_cbr () =
  (* Appendix D failure mode: at a high inelastic share the queue cannot
     drain within 5 RTTs, so Copa's detector misfires into competitive mode.
     Our Copa shows the directional effect (misclassification episodes grow
     sharply with the inelastic share) though it recovers more often than
     the paper's Linux Copa did. *)
  let high = copa_competitive_fraction ~cbr_rate:80e6 in
  let low = copa_competitive_fraction ~cbr_rate:24e6 in
  Alcotest.(check bool) "misclassifies much more at 80M than 24M" true
    (high > 0.05 && high > 4. *. low)

let test_copa_default_under_light_cbr () =
  let e, _, topo, route = make_link ~rate_bps:96e6 () in
  let copa = Copa.create ~switching:true () in
  ignore (Flow.create_via topo ~route ~cc:(Copa.cc copa) ~prop_rtt:rtt50 ());
  ignore (Nimbus_traffic.Source.cbr_via topo ~route ~rate:(Rate.bps 24e6) ());
  let competitive_samples = ref 0 and samples = ref 0 in
  Engine.every e ~dt:(Time.ms 100.) ~start:(Time.secs 20.)
    ~until:(Time.secs 60.) (fun () ->
      incr samples;
      if Copa.in_competitive_mode copa then incr competitive_samples);
  Engine.run_until e (Time.secs 60.);
  let frac = float_of_int !competitive_samples /. float_of_int !samples in
  Alcotest.(check bool) "mostly default mode" true (frac < 0.4)

let test_bbr_estimates_bandwidth () =
  let e, _, topo, route = make_link ~rate_bps:24e6 () in
  let b = Bbr.create () in
  let f = Flow.create_via topo ~route ~cc:(Bbr.cc b) ~prop_rtt:rtt50 () in
  Engine.run_until e (Time.secs 20.);
  let est = Rate.to_bps (Bbr.btl_bw b) in
  Alcotest.(check bool) "btl_bw within 25% of the link" true
    (Float.abs (est -. 24e6) < 6e6);
  Alcotest.(check bool) "throughput near link" true
    (throughput f ~seconds:20. > 0.8 *. 24e6)

let test_vivace_fills_link_solo () =
  let e, _, topo, route = make_link ~rate_bps:24e6 () in
  let f = Flow.create_via topo ~route ~cc:(Vivace.make ()) ~prop_rtt:rtt50 () in
  Engine.run_until e (Time.secs 40.);
  Alcotest.(check bool) "ramps to a useful rate" true
    (throughput f ~seconds:40. > 0.4 *. 24e6)

let test_compound_ramps_fast_when_idle () =
  let e, _, topo, route = make_link ~rate_bps:48e6 () in
  let f = Flow.create_via topo ~route ~cc:(Compound.make ())
      ~prop_rtt:rtt50 () in
  Engine.run_until e (Time.secs 20.);
  Alcotest.(check bool) "good utilization" true
    (throughput f ~seconds:20. > 0.8 *. 48e6)

let test_basic_delay_targets_queue () =
  let e, bn, topo, route = make_link ~rate_bps:48e6 () in
  let f =
    Flow.create_via topo ~route
      ~cc:(Basic_delay.make ~mu:(Rate.bps 48e6) ())
      ~prop_rtt:rtt50 ()
  in
  let qsum = ref 0. and qn = ref 0 in
  Engine.every e ~dt:(Time.ms 100.) ~start:(Time.secs 10.)
    ~until:(Time.secs 40.) (fun () ->
      qsum := !qsum +. Time.to_secs (Bottleneck.queue_delay bn);
      incr qn);
  Engine.run_until e (Time.secs 40.);
  let mean_q = !qsum /. float_of_int !qn in
  Alcotest.(check bool) "fills link" true
    (throughput f ~seconds:40. > 0.9 *. 48e6);
  (* queue should hover near the 12.5 ms target *)
  Alcotest.(check bool) "queue near target" true
    (mean_q > 0.004 && mean_q < 0.03)

let test_const_rate_paces_exactly () =
  let e, _, topo, route = make_link () in
  let f =
    Flow.create_via topo ~route
      ~cc:(Simple_cc.const_rate ~rate:(Rate.bps 4e6))
      ~prop_rtt:rtt50 ()
  in
  Engine.run_until e (Time.secs 10.);
  let tput = throughput f ~seconds:10. in
  Alcotest.(check bool) "4 Mbps +-10%" true (Float.abs (tput -. 4e6) < 0.4e6)

let test_fixed_window_is_capped () =
  let e, _, topo, route = make_link () in
  let f =
    Flow.create_via topo ~route
      ~cc:(Simple_cc.fixed_window ~segments:10 ())
      ~prop_rtt:(Time.ms 100.) ()
  in
  Engine.run_until e (Time.secs 10.);
  (* 10 segments per ~100 ms RTT = ~1.2 Mbps *)
  let tput = throughput f ~seconds:10. in
  Alcotest.(check bool) "window-limited" true (tput < 2e6)

let test_validation_errors () =
  Alcotest.(check bool) "const_rate rejects 0" true
    (try ignore (Simple_cc.const_rate ~rate:Rate.zero); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "fixed_window rejects 0" true
    (try ignore (Simple_cc.fixed_window ~segments:0 ()); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "basic_delay rejects mu<=0" true
    (try ignore (Basic_delay.create ~mu:Rate.zero ()); false
     with Invalid_argument _ -> true)

let suite =
  [ ( "cc.flow",
      [ Alcotest.test_case "fills link" `Quick test_flow_fills_link;
        Alcotest.test_case "min rtt" `Quick test_flow_min_rtt_is_propagation;
        Alcotest.test_case "finite completes" `Quick test_finite_flow_completes;
        Alcotest.test_case "finished flow drains" `Quick
          test_finished_flow_drains;
        Alcotest.test_case "rejects bad prop_rtt" `Quick
          test_rejects_bad_prop_rtt;
        Alcotest.test_case "app-limited supply" `Quick
          test_app_limited_respects_supply;
        Alcotest.test_case "loss + retransmit" `Quick
          test_loss_detection_and_retransmit;
        Alcotest.test_case "rate measurement" `Quick
          test_rate_measurement_tracks_pacing;
        Alcotest.test_case "stop" `Quick test_flow_stop;
        Alcotest.test_case "delayed start" `Quick test_delayed_start;
        Alcotest.test_case "two flows share" `Quick test_two_flows_share;
        Alcotest.test_case "fresh ids" `Quick test_fresh_ids_unique ] );
    ( "cc.reno",
      [ Alcotest.test_case "halves on loss" `Quick test_reno_halves_on_loss;
        Alcotest.test_case "slow start" `Quick test_reno_slow_start_doubles;
        Alcotest.test_case "timeout reset" `Quick test_reno_timeout_resets ] );
    ( "cc.cubic",
      [ Alcotest.test_case "beta cut" `Quick test_cubic_reduces_by_beta;
        Alcotest.test_case "grows toward w_max" `Quick
          test_cubic_grows_toward_wmax;
        Alcotest.test_case "reset_cwnd" `Quick test_cubic_reset_cwnd ] );
    ( "cc.vegas",
      [ Alcotest.test_case "small queue solo" `Quick test_vegas_keeps_small_queue;
        Alcotest.test_case "starves vs cubic" `Quick
          test_vegas_starves_against_cubic ] );
    ( "cc.copa",
      [ Alcotest.test_case "default mode low delay" `Quick
          test_copa_default_mode_low_delay;
        Alcotest.test_case "stuck competitive at 80M CBR" `Quick
          test_copa_sticks_competitive_under_heavy_cbr;
        Alcotest.test_case "default at 24M CBR" `Quick
          test_copa_default_under_light_cbr ] );
    ( "cc.bbr",
      [ Alcotest.test_case "estimates bandwidth" `Quick
          test_bbr_estimates_bandwidth ] );
    ( "cc.vivace",
      [ Alcotest.test_case "fills link solo" `Quick test_vivace_fills_link_solo ] );
    ( "cc.compound",
      [ Alcotest.test_case "fast ramp when idle" `Quick
          test_compound_ramps_fast_when_idle ] );
    ( "cc.basic_delay",
      [ Alcotest.test_case "targets queue delay" `Quick
          test_basic_delay_targets_queue ] );
    ( "cc.simple",
      [ Alcotest.test_case "const rate" `Quick test_const_rate_paces_exactly;
        Alcotest.test_case "fixed window" `Quick test_fixed_window_is_capped;
        Alcotest.test_case "validation" `Quick test_validation_errors ] ) ]
