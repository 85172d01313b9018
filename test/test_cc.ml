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

(* A scheduled pacer reads the rate when it wakes; an ACK or a tick does not
   ask again ([Cc_types.t.pacing_rate]'s contract).  At 12 Mbit/s a wake
   comes every 1 ms packet time, so 2 s hold about 2000 wakes, one ask each,
   plus the flow's set-up check and its start.  Asking on every ACK as well
   would double the count. *)
let test_paced_flow_asks_on_wake () =
  let e, _, topo, route = make_link ~rate_bps:48e6 () in
  let inner = Simple_cc.const_rate ~rate:(Rate.mbps 12.) in
  let asks = ref 0 in
  let cc =
    { inner with
      Cc_types.pacing_rate =
        (fun () ->
          incr asks;
          inner.Cc_types.pacing_rate ()) }
  in
  let f = Flow.create_via topo ~route ~cc ~prop_rtt:rtt50 () in
  Engine.run_until e (Time.secs 2.);
  let acks = Flow.acked_bytes f / 1500 in
  Alcotest.(check bool) "the flow ran at its rate" true (acks > 1900);
  if !asks < 1990 || !asks > 2010 then
    Alcotest.failf "%d pacing_rate calls for %d ACKs (want ~2002)" !asks acks

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

(* An idle app-limited flow's tick checks the RTO, finds nothing to send and
   reschedules itself with the flow's one tick closure.  Building a fresh
   closure per firing would cost ~18.5 minor words per tick. *)
let test_idle_tick_allocation () =
  let e, _, topo, route = make_link () in
  let _f =
    Flow.create_via topo ~route ~cc:(Cubic.make ()) ~prop_rtt:rtt50
      ~source:Flow.App_limited ()
  in
  Engine.run_until e (Time.secs 1.);
  let before = Gc.minor_words () in
  (* 1000 ticks of 10 ms *)
  Engine.run_until e (Time.secs 11.);
  let per_tick = (Gc.minor_words () -. before) /. 1000. in
  if per_tick > 14. then
    Alcotest.failf "idle tick allocates %.2f minor words (max 14)" per_tick

(* The Eq. 2 send/receive rates of a seeded one-flow dumbbell, pinned bit
   for bit.  The run acks well past 2048 packets, so the rate ring grows
   through every size and then wraps. *)
let test_rate_pins () =
  let e, _, topo, route = make_link () in
  let f = Flow.create_via topo ~route ~cc:(Cubic.make ()) ~prop_rtt:rtt50 () in
  let _cross =
    Nimbus_traffic.Source.poisson_via topo ~route ~rng:(Rng.create 7)
      ~rate:(Rate.bps 4e6) ()
  in
  let bits r = Int64.bits_of_float (Rate.to_bps r) in
  List.iter
    (fun (at, send, recv) ->
      Engine.run_until e (Time.secs at);
      let label what = Printf.sprintf "%s rate at %gs" what at in
      Alcotest.(check int64) (label "send") send (bits (Flow.send_rate f));
      Alcotest.(check int64) (label "recv") recv (bits (Flow.recv_rate f)))
    [ (0.5, 0x41807f74612afa60L, 0x41742e30a4924920L);
      (1., 0x416b2071c71c7510L, 0x4167210d7943611eL);
      (1.5, 0x4173f516d44aefafL, 0x41735deec4ec511dL);
      (2., 0x4173335d555557a9L, 0x417386ad0456c9f5L);
      (3., 0x417312cffffff8ffL, 0x417312cffffff8ffL);
      (4., 0x4172d7a07c1f00d7L, 0x4172d7a07c1f00d7L) ];
  Alcotest.(check bool) "acked past two ring lengths" true
    (Flow.acked_bytes f / 1500 > 2 * 2048)

(* Every RTO instant of a dumbbell Cubic flow whose ACKs all drop from 1 s
   on, pinned bit for bit at two tick intervals: the retransmission timeout
   fires on the grid start + k * interval, and only there. *)
let rto_instants ~tick_interval =
  let e, _, topo, route = make_link () in
  let timeouts = ref [] in
  let cubic = Cubic.make () in
  let cc =
    { cubic with
      Cc_types.on_loss =
        (fun (l : Cc_types.loss) ->
          if l.kind = `Timeout then
            timeouts := Int64.bits_of_float (Time.to_secs l.now) :: !timeouts;
          cubic.Cc_types.on_loss l) }
  in
  let f =
    Flow.create_via topo ~route ~cc ~prop_rtt:rtt50 ~tick_interval ()
  in
  Engine.schedule_at e (Time.secs 1.) (fun () ->
      Flow.apply f (Flow.Control.Ack_loss (Some (fun () -> true))));
  Engine.run_until e (Time.secs 6.);
  List.rev !timeouts

let test_rto_instants_pinned () =
  let hex l = String.concat " " (List.map (Printf.sprintf "0x%LxL") l) in
  List.iter
    (fun (ms, expected) ->
      let got = rto_instants ~tick_interval:(Time.ms ms) in
      if got <> expected then
        Alcotest.failf "%g ms tick: RTO instants\n  got      %s\n  expected %s"
          ms (hex got) (hex expected))
    (* the 100 ms grid's float steps show: 1.5 s is 0x3ff8000000000000 *)
    [ ( 10.,
        [ 0x3ff7ae147ae147b3L; 0x3ffee147ae147ae8L; 0x40030a3d70a3d6fbL;
          0x4006a3d70a3d707fL; 0x400a3d70a3d70a03L; 0x400dd70a3d70a387L;
          0x4010b851eb851e86L; 0x4012851eb851eb48L; 0x401451eb851eb80aL;
          0x40161eb851eb84ccL; 0x4017eb851eb8518eL ] );
      ( 100.,
        [ 0x3ff8000000000001L; 0x4000000000000001L; 0x4004000000000002L;
          0x4008000000000003L; 0x400c000000000004L; 0x4010000000000002L;
          0x4012000000000000L; 0x4013fffffffffffeL; 0x4015fffffffffffcL;
          0x4017fffffffffffaL ] ) ]

(* A backlogged Cubic flow moves only on ACKs and losses, so it keeps no
   10 ms tick: its one timer is the RTO deadline, which fires about once per
   RTO (0.4 s) while ACKs keep moving the deadline on.  A ticking flow
   would open ~1000 [Flow_tick] scopes in 10 s. *)
let test_ack_clocked_flow_does_not_tick () =
  let module Span = Nimbus_trace.Span in
  let e, _, topo, route = make_link () in
  let f = Flow.create_via topo ~route ~cc:(Cubic.make ()) ~prop_rtt:rtt50 () in
  Span.reset ();
  Span.enable ();
  let ticks =
    Fun.protect
      ~finally:(fun () -> Span.disable (); Span.reset ())
      (fun () ->
        Engine.run_until e (Time.secs 10.);
        List.fold_left
          (fun n (s : Span.stat) ->
            if s.s_id = Span.Flow_tick then n + s.s_count else n)
          0 (Span.stats ()))
  in
  Alcotest.(check bool) "the flow ran" true (Flow.acked_bytes f > 1_000_000);
  if ticks = 0 || ticks >= 50 then
    Alcotest.failf "%d Flow_tick scopes in 10 s (want 1 to 49)" ticks

(* --- the scoreboard --------------------------------------------------------- *)

(* Every controller event of a dumbbell Cubic flow, digested: each ACK's
   seq, bytes, inflight and delivered counts and the bits of its now, rtt,
   srtt and min_rtt, and each loss's kind, seq, bytes, inflight and instant.
   Returns the digest, the ACK count, the ACKs for a seq declared lost
   earlier (Karn's rule keeps their RTT out), the bytes of the first
   timeout, the flow's loss count and received bytes, and the count that
   [setup]'s reader returns after the run. *)
let cc_fingerprint ~seconds ~setup =
  let e, bn, topo, route = make_link () in
  let b = Buffer.create 65536 in
  let acks = ref 0 and after_loss = ref 0 and first_timeout = ref 0 in
  let lost = Hashtbl.create 64 in
  let bits t = Int64.bits_of_float (Time.to_secs t) in
  let cubic = Cubic.make () in
  let cc =
    { cubic with
      Cc_types.on_ack =
        (fun (a : Cc_types.ack) ->
          incr acks;
          if Hashtbl.mem lost a.seq then incr after_loss;
          Printf.bprintf b "a %d %d %d %d %Lx %Lx %Lx %Lx\n" a.seq a.bytes
            a.inflight_bytes a.delivered_bytes (bits a.times.now)
            (bits a.times.rtt) (bits a.times.srtt) (bits a.times.min_rtt);
          cubic.Cc_types.on_ack a);
      on_loss =
        (fun (l : Cc_types.loss) ->
          Hashtbl.replace lost l.seq ();
          if l.kind = `Timeout && !first_timeout = 0 then
            first_timeout := l.bytes;
          Printf.bprintf b "l %s %d %d %d %Lx\n"
            (match l.kind with `Dupack -> "d" | `Timeout -> "t")
            l.seq l.bytes l.inflight_bytes (bits l.now);
          cubic.Cc_types.on_loss l) }
  in
  let f = Flow.create_via topo ~route ~cc ~prop_rtt:rtt50 () in
  let extra = setup e bn f in
  Engine.run_until e (Time.secs seconds);
  ( Digest.to_hex (Digest.string (Buffer.contents b)),
    !acks, !after_loss, !first_timeout, Flow.lost_packets f,
    Flow.received_bytes f, extra () )

let fingerprint =
  Alcotest.(
    pair string
      (pair int (pair int (pair int (pair int (pair int int))))))

let nest (d, a, k, t, l, r, x) = (d, (a, (k, (t, (l, (r, x))))))

(* Every ACK drops from 1 s to 2.5 s: the RTO declares a window of 191
   packets lost at once (the scoreboard scan must hand them to the
   retransmission queue in ascending order), and the retransmissions' ACKs
   take Karn's path.  Values recorded on the hash-table scoreboard. *)
let test_scoreboard_rto_window () =
  let got =
    cc_fingerprint ~seconds:5. ~setup:(fun e _ f ->
        Engine.schedule_at e (Time.secs 1.) (fun () ->
            Flow.apply f (Flow.Control.Ack_loss (Some (fun () -> true))));
        Engine.schedule_at e (Time.secs 2.5) (fun () ->
            Flow.apply f (Flow.Control.Ack_loss None));
        fun () -> 0)
  in
  Alcotest.check fingerprint "RTO with 191 packets outstanding"
    (nest ("158f62ec5709519ad77c1a35ab0f69f7", 1814, 431, 286500, 756,
           3162000, 0))
    (nest got)

(* Delay jitter of up to 30 ms, redrawn every 5 ms from 1 s to 4 s, reorders
   deliveries: packets overtaken by three later ones are declared lost, and
   ACKs arrive late for seqs already declared lost — 3190 ACKs leave the
   receiver and 2691 reach [on_ack], so the typed legs must carry each
   packet to its own ACK.  Values recorded on the hash-table scoreboard. *)
let test_scoreboard_reordering () =
  let got =
    cc_fingerprint ~seconds:5. ~setup:(fun e bn f ->
        let sent_acks = ref 0 in
        Flow.apply f
          (Flow.Control.Ack_loss
             (Some
                (fun () ->
                  incr sent_acks;
                  false)));
        Nimbus_faults.Fault.attach ~engine:e ~bottleneck:bn ~flows:[| f |]
          ~rng:(Rng.create 3)
          [ Nimbus_faults.Fault.Delay_jitter
              { at = Time.secs 1.; until = Time.secs 4.; amp = Time.ms 30.;
                period = Time.ms 5. } ];
        fun () -> !sent_acks)
  in
  Alcotest.check fingerprint "jitter reorders deliveries"
    (nest ("a993ff989535f5a7e0817488cbde5a4e", 2691, 737, 0, 956, 4785000,
           3190))
    (nest got)

(* The packet path allocates little: 4 Cubic flows and a 24 Mbit/s Poisson
   source on a 96 Mbit/s, 50 ms dumbbell for 2 s.  Minor words per packet
   delivered at the link: 2.22 measured (Cubic's boxed window, the Poisson
   draw); 7.7 when every packet was a 5-word record. *)
let test_dumbbell_words_per_packet () =
  let e, bn, topo, route = make_link ~rate_bps:96e6 ~buffer_s:0.1 () in
  let rng = Rng.create 1 in
  for j = 0 to 3 do
    ignore
      (Flow.create_via topo ~route ~cc:(Cubic.make ()) ~prop_rtt:rtt50
         ~start:(Time.ms (float_of_int (j * 50))) ())
  done;
  ignore
    (Nimbus_traffic.Source.poisson_via topo ~route ~rng:(Rng.split rng)
       ~rate:(Rate.mbps 24.) ());
  (* ramp-up first: the growth of every ring and table is behind us *)
  Engine.run_until e (Time.secs 1.);
  let pkts0 = Bottleneck.delivered_packets bn in
  let before = Gc.minor_words () in
  Engine.run_until e (Time.secs 3.);
  let words = Gc.minor_words () -. before in
  let pkts = Bottleneck.delivered_packets bn - pkts0 in
  Alcotest.(check bool) "the link carried ~2 s of packets" true (pkts > 15_000);
  let per_pkt = words /. float_of_int pkts in
  if per_pkt > 2.5 then
    Alcotest.failf "%.2f minor words per packet (want <= 2.5)" per_pkt

let test_reno_halves_on_loss () =
  let r = Reno.create () in
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
  let r = Reno.create () in
  let cc = Reno.cc r in
  let ack now =
    cc.Cc_types.on_ack
      { Cc_types.times =
          { now = Time.secs now; rtt = rtt50; min_rtt = rtt50; srtt = rtt50 };
        seq = 0; bytes = 1500; inflight_bytes = 0; delivered_bytes = 0 }
  in
  ack 0.1;
  ack 0.2;
  (* from the initial window of 10 segments *)
  check_close "2 acks add 2 mss" 18000. (B.to_float (Reno.cwnd_bytes r))

let test_reno_timeout_resets () =
  let r = Reno.create () in
  (Reno.cc r).Cc_types.on_loss
    { Cc_types.now = Time.secs 1.; seq = 0; bytes = 1500; inflight_bytes = 0;
      kind = `Timeout };
  check_close "collapses to 2 mss" 3000. (B.to_float (Reno.cwnd_bytes r))

let test_cubic_reduces_by_beta () =
  let c = Cubic.create () in
  Cubic.reset_cwnd c (B.bytes 150_000.);
  (Cubic.cc c).Cc_types.on_loss
    { Cc_types.now = Time.secs 5.; seq = 0; bytes = 1500; inflight_bytes = 0;
      kind = `Dupack };
  check_close "beta cut" (150_000. *. 0.7) (B.to_float (Cubic.cwnd_bytes c))

let test_cubic_grows_toward_wmax () =
  let c = Cubic.create () in
  Cubic.reset_cwnd c (B.bytes 150_000.);
  let cc = Cubic.cc c in
  cc.Cc_types.on_loss
    { Cc_types.now = Time.zero; seq = 0; bytes = 1500; inflight_bytes = 0;
      kind = `Dupack };
  let low = B.to_float (Cubic.cwnd_bytes c) in
  (* feed acks over simulated seconds; window must recover toward w_max *)
  for i = 1 to 2000 do
    cc.Cc_types.on_ack
      { Cc_types.times =
          { now = Time.secs (float_of_int i /. 100.); rtt = rtt50;
            min_rtt = rtt50; srtt = rtt50 };
        seq = i; bytes = 1500; inflight_bytes = 0; delivered_bytes = 0 }
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
        Alcotest.test_case "paced flow asks pacing_rate only when the pacer wakes"
          `Quick test_paced_flow_asks_on_wake;
        Alcotest.test_case "stop" `Quick test_flow_stop;
        Alcotest.test_case "delayed start" `Quick test_delayed_start;
        Alcotest.test_case "two flows share" `Quick test_two_flows_share;
        Alcotest.test_case "fresh ids" `Quick test_fresh_ids_unique;
        Alcotest.test_case "idle tick allocation" `Quick
          test_idle_tick_allocation;
        Alcotest.test_case "rate pins" `Quick test_rate_pins;
        Alcotest.test_case "RTO instants pinned" `Quick
          test_rto_instants_pinned;
        Alcotest.test_case "ack-clocked flow does not tick" `Quick
          test_ack_clocked_flow_does_not_tick;
        Alcotest.test_case "scoreboard: RTO of a 191-packet window" `Quick
          test_scoreboard_rto_window;
        Alcotest.test_case "scoreboard: reordering and late ACKs" `Quick
          test_scoreboard_reordering;
        Alcotest.test_case "dumbbell words per packet" `Quick
          test_dumbbell_words_per_packet ] );
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
