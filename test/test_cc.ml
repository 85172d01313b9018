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

(* A flow given up with [Flow.recycle] hands its whole record to the next
   flow on its engine.  Flow A's first window is held 2 s on the forward
   leg, so its RTO resends it and A completes and releases at ~1.3 s; the
   delayed originals then reach the record at ~2.03 s.  Flow B starts at
   1.9 s on another link of the same engine, takes A's record, and has the
   same seqs 0-9 in flight until ~2.2 s.  A's late originals must leave B
   alone: B's outcome equals that of the same flow alone on a fresh
   engine.  A is read only before B starts, while the record is still
   A's. *)
let test_released_buffers_not_aliased () =
  let b_flow e =
    let topo, route =
      Topology.dumbbell e
        (Topology.Link.Config.default ~rate:(Rate.mbps 24.)
           ~qdisc:(Qdisc.droptail ~capacity_bytes:300_000))
    in
    let b = ref None in
    Engine.schedule_at e (Time.secs 1.9) (fun () ->
        b :=
          Some
            (Flow.create_via topo ~route ~cc:(Cubic.make ())
               ~prop_rtt:(Time.ms 300.) ~source:(Flow.Finite 450_000) ()));
    b
  in
  let outcome e b =
    Engine.run_until e (Time.secs 10.);
    let f = Option.get !b in
    let bits t = Int64.bits_of_float (Time.to_secs t) in
    ( (Option.map bits (Flow.completion_time f), bits (Flow.srtt f)),
      (Flow.lost_packets f, Flow.acked_bytes f, Flow.received_bytes f) )
  in
  let e, _, topo, route = make_link () in
  let a =
    Flow.create_via topo ~route ~cc:(Cubic.make ()) ~prop_rtt:rtt50
      ~source:(Flow.Finite 30_000) ~on_complete:Flow.recycle ()
  in
  Flow.apply a (Flow.Control.Extra_delay (Time.secs 2.));
  Engine.schedule_at e (Time.secs 0.5) (fun () ->
      Flow.apply a (Flow.Control.Extra_delay Time.zero));
  let b = b_flow e in
  Engine.run_until e (Time.secs 1.8);
  (match Flow.completion_time a with
   | Some at when Time.to_secs at < 1.5 -> ()
   | _ -> Alcotest.fail "A did not complete before B starts");
  Alcotest.(check int) "A lost its first window to the RTO" 10
    (Flow.lost_packets a);
  Alcotest.(check int) "A received its bytes once" 30_000
    (Flow.received_bytes a);
  Alcotest.(check int) "A released" 0 (Flow.inflight_bytes a);
  let got = outcome e b in
  Alcotest.(check bool) "B took A's record" true (Option.get !b == a);
  let alone = Engine.create Engine.Config.default in
  let want = outcome alone (b_flow alone) in
  let t = Alcotest.(pair (pair (option int64) int64) (triple int int int)) in
  Alcotest.check t "B as if alone" want got;
  Alcotest.(check int) "B lost nothing" 0 (Flow.lost_packets (Option.get !b))

(* A recycled record is inert to its past.  Flow A crosses a lossy link
   with 80 ms of propagation, and its first window is held 1.3 s on the
   forward leg, so its RTO declares the whole window lost and resends it,
   and the held originals land as duplicates; A is given up when it
   completes.  The moment its last ACK is in, flow B is made on another
   link of the same engine and takes A's record, while (counted in an
   instrumented copy of the flow) three of A's packets are still crossing
   its link, two are on its forward leg, two of its ACKs are on the
   reverse leg (they land while B's first window, with the same seqs, is
   still in flight) and its next tick is pending.  Both controllers tick,
   and log every field of every ACK, loss and tick they see: B's log,
   bytes, losses and completion time must be those of the same flow alone
   on a fresh engine.  In a scratch copy, this fails when the id guard of
   the receiver leg or of the ACK leg, or the id in the timer thunk, is
   dropped; without the delivery guard alone, a late packet is dropped
   one leg later, so nothing changes.

   B also takes A's controller, reset, as [Wan] hands a cross-flow's Cubic
   on: A's release hook passes it over.  The hook must run once, at the
   release, not at the completion: A's controller still sees A's ACKs
   after A completed (a hand-over there would share it between two
   flows), and none once A is released, while its late ACKs are still in
   flight; B with A's controller must still be B alone with a fresh one. *)
let test_recycled_record_inert () =
  let logged ?(c = Cubic.make ()) log =
    { c with
      Cc_types.on_ack =
        (fun (a : Cc_types.ack) ->
          Printf.bprintf log "a %h %h %h %h %d %d %d %d\n"
            (Time.to_secs a.times.now) (Time.to_secs a.times.rtt)
            (Time.to_secs a.times.min_rtt) (Time.to_secs a.times.srtt) a.seq
            a.bytes a.inflight_bytes a.delivered_bytes;
          c.on_ack a);
      on_loss =
        (fun (l : Cc_types.loss) ->
          Printf.bprintf log "l %h %d %d %d %s\n" (Time.to_secs l.times.now) l.seq
            l.bytes l.inflight_bytes
            (match l.kind with `Dupack -> "dupack" | `Timeout -> "timeout");
          c.on_loss l);
      on_tick =
        Some
          (fun (k : Cc_types.tick) ->
            Printf.bprintf log "t %h %h %h %h %h %h %d %d %d\n"
              (Time.to_secs k.now) (Rate.to_bps k.send_rate)
              (Rate.to_bps k.recv_rate) (Time.to_secs k.rtt)
              (Time.to_secs k.srtt) (Time.to_secs k.min_rtt) k.inflight_bytes
              k.delivered_bytes k.lost_packets) }
  in
  let link ~mbps ~capacity ~loss ~seed =
    let c =
      Topology.Link.Config.default ~rate:(Rate.mbps mbps)
        ~qdisc:(Qdisc.droptail ~capacity_bytes:capacity)
    in
    { c with
      bottleneck =
        { c.bottleneck with random_loss = Some (loss, Rng.create seed) } }
  in
  (* B's link, in [topo] *)
  let b_route topo =
    let s = Topology.add_node topo "b-src"
    and d = Topology.add_node topo "b-dst" in
    Topology.Route.of_links
      [ Topology.add_link topo ~src:s ~dst:d
          (link ~mbps:24. ~capacity:120_000 ~loss:0.01 ~seed:5) ]
  in
  let b_start ?c topo route log =
    Flow.create_via topo ~route ~cc:(logged ?c log) ~prop_rtt:(Time.ms 300.)
      ~source:(Flow.Finite 600_000) ()
  in
  let outcome e b log =
    Engine.run_until e (Time.secs 30.);
    ( Digest.to_hex (Digest.string (Buffer.contents log)),
      (Flow.received_bytes b, Flow.lost_packets b),
      Option.map
        (fun t -> Int64.bits_of_float (Time.to_secs t))
        (Flow.completion_time b) )
  in
  let e = Engine.create Engine.Config.default in
  let topo = Topology.create e in
  let s = Topology.add_node topo "a-src"
  and d = Topology.add_node topo "a-dst" in
  let a_route =
    Topology.Route.of_links
      [ Topology.add_link topo ~src:s ~dst:d
          { (link ~mbps:8. ~capacity:150_000 ~loss:0.02 ~seed:4) with
            prop_delay = Time.ms 80. } ]
  in
  (* A's controller, and every call it takes after A completed and after
     A was released *)
  let a_cubic = Cubic.create () in
  let a_cc = Cubic.cc a_cubic in
  let completed = ref false and released = ref 0 in
  let after_complete = ref 0 and after_release = ref 0 in
  let guarded (c : Cc_types.t) =
    let note () =
      if !released > 0 then incr after_release
      else if !completed then incr after_complete
    in
    { c with
      Cc_types.on_ack = (fun a -> note (); c.on_ack a);
      on_loss = (fun l -> note (); c.on_loss l);
      on_tick = Option.map (fun f k -> note (); f k) c.on_tick }
  in
  let inflight_at_release = ref (-1) in
  let a =
    Flow.create_via topo ~route:a_route
      ~cc:(guarded (logged ~c:a_cc (Buffer.create 16)))
      ~prop_rtt:(Time.ms 461.) ~source:(Flow.Finite 15_000)
      ~on_complete:(fun f ->
        completed := true;
        Flow.recycle f)
      ~on_release:(fun f ->
        incr released;
        inflight_at_release := Flow.inflight_bytes f)
      ()
  in
  Flow.apply a (Flow.Control.Extra_delay (Time.secs 1.3));
  Engine.schedule_at e (Time.secs 0.3) (fun () ->
      Flow.apply a (Flow.Control.Extra_delay Time.zero));
  let route = b_route topo in
  (* step until A is released: complete, with nothing in flight *)
  let rec until_released () =
    if Time.to_secs (Engine.now e) > 60. then Alcotest.fail "A never finished";
    if Option.is_none (Flow.completion_time a) || Flow.inflight_bytes a > 0
    then begin
      Engine.run_until e (Time.add (Engine.now e) (Time.ms 0.1));
      until_released ()
    end
  in
  until_released ();
  Alcotest.(check int) "A lost its whole first window" 10 (Flow.lost_packets a);
  Alcotest.(check bool) "A received duplicates" true
    (Flow.received_bytes a > 15_000);
  Alcotest.(check int) "A's release hook ran once" 1 !released;
  Alcotest.(check int) "A was released with nothing in flight" 0
    !inflight_at_release;
  Alcotest.(check bool) "A's controller saw A's ACKs after A completed" true
    (!after_complete > 0);
  let at = Engine.now e in
  let log = Buffer.create 65536 in
  Cubic.reset a_cubic;
  let b = b_start ~c:a_cc topo route log in
  Alcotest.(check bool) "B took A's record" true (b == a);
  let got = outcome e b log in
  Alcotest.(check int) "A's release hook ran once in all" 1 !released;
  Alcotest.(check int) "A called its controller after its release" 0
    !after_release;
  let alone = Engine.create Engine.Config.default in
  let topo = Topology.create alone in
  let route = b_route topo in
  Engine.run_until alone at;
  let log = Buffer.create 65536 in
  let want = outcome alone (b_start topo route log) log in
  Alcotest.(check (triple string (pair int int) (option int64)))
    "B as if alone" want got

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
            timeouts :=
              Int64.bits_of_float (Time.to_secs l.times.now) :: !timeouts;
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
            l.seq l.bytes l.inflight_bytes (bits l.times.now);
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


(* A window-limited flow whose ACKs all drop from 1 s on times out every
   ~0.4 s and resends its whole window of 40 packets.  Once its rings have
   grown, a timeout allocates nothing: the scoreboard drains into the
   retransmit queue in place, the loss record is refilled (its time in an
   all-float sub-record), and the deadline timer is keyed in place.  A
   boxed clock in the loss record cost 2 words per timeout; the sort-based
   drain (a fresh array, two closures, and a boxed exception per
   [Array.sort] step), a fresh loss record and the boxed timer key cost
   244. *)
let test_rto_timeout_allocation () =
  let e, _, topo, route = make_link () in
  let timeouts = ref 0 in
  let inner = Simple_cc.fixed_window ~segments:40 () in
  let cc =
    { inner with
      Cc_types.on_loss =
        (fun (l : Cc_types.loss) ->
          match l.kind with `Timeout -> incr timeouts | `Dupack -> ()) }
  in
  let f = Flow.create_via topo ~route ~cc ~prop_rtt:rtt50 () in
  let drop_all () = true in
  Engine.schedule_at e (Time.secs 1.) (fun () ->
      Flow.apply f (Flow.Control.Ack_loss (Some drop_all)));
  Engine.run_until e (Time.secs 3.);
  let n0 = !timeouts and lost0 = Flow.lost_packets f in
  let before = Gc.minor_words () in
  Engine.run_until e (Time.secs 13.);
  let words = Gc.minor_words () -. before in
  let n = !timeouts - n0 in
  Alcotest.(check bool) "a timeout every ~0.4 s" true (n >= 20 && n <= 30);
  Alcotest.(check int) "each resends the window" (40 * n)
    (Flow.lost_packets f - lost0);
  Alcotest.(check (float 0.)) "minor words per timeout" 0.
    (words /. float_of_int n)

(* A paced flow's pacer wakes every 1 ms at 12 Mbit/s and reads its rate,
   sends what its credit allows and keys its next wake in place: with the
   ACKs and the 10 ms tick that come with it, 2 s of the flow allocate
   nothing.  A wake that boxed its interval for [Engine.schedule_in], with
   [Simple_cc.const_rate] building a fresh [Some] per answer, cost 4 words
   (8004 here). *)
let test_pacer_wake_allocates_nothing () =
  let e, _, topo, route = make_link ~rate_bps:48e6 () in
  let inner = Simple_cc.const_rate ~rate:(Rate.mbps 12.) in
  let wakes = ref 0 in
  let cc =
    { inner with
      Cc_types.pacing_rate =
        (fun () ->
          incr wakes;
          inner.Cc_types.pacing_rate ()) }
  in
  let f = Flow.create_via topo ~route ~cc ~prop_rtt:rtt50 () in
  Engine.run_until e (Time.secs 1.);
  let w0 = !wakes and acked0 = Flow.acked_bytes f in
  let before = Gc.minor_words () in
  Engine.run_until e (Time.secs 3.);
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "~2000 wakes and ACKs" true
    (!wakes - w0 > 1900 && (Flow.acked_bytes f - acked0) / 1500 > 1900);
  Alcotest.(check (float 0.)) "minor words over 2 s of pacing" 0. words

let test_reno_halves_on_loss () =
  let r = Reno.create () in
  let cc = Reno.cc r in
  (* leave slow start by faking a loss, then grow in CA *)
  cc.Cc_types.on_loss
    { Cc_types.times = { now = Time.secs 1. }; seq = 0; bytes = 1500;
      inflight_bytes = 0; kind = `Dupack };
  let after_first = B.to_float (Reno.cwnd_bytes r) in
  cc.Cc_types.on_loss
    { Cc_types.times = { now = Time.secs 10. }; seq = 0; bytes = 1500;
      inflight_bytes = 0; kind = `Dupack };
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
    { Cc_types.times = { now = Time.secs 1. }; seq = 0; bytes = 1500;
      inflight_bytes = 0; kind = `Timeout };
  check_close "collapses to 2 mss" 3000. (B.to_float (Reno.cwnd_bytes r))

let test_cubic_reduces_by_beta () =
  let c = Cubic.create () in
  Cubic.reset_cwnd c (B.bytes 150_000.);
  (Cubic.cc c).Cc_types.on_loss
    { Cc_types.times = { now = Time.secs 5. }; seq = 0; bytes = 1500;
      inflight_bytes = 0; kind = `Dupack };
  check_close "beta cut" (150_000. *. 0.7) (B.to_float (Cubic.cwnd_bytes c))

let test_cubic_grows_toward_wmax () =
  let c = Cubic.create () in
  Cubic.reset_cwnd c (B.bytes 150_000.);
  let cc = Cubic.cc c in
  cc.Cc_types.on_loss
    { Cc_types.times = { now = Time.zero }; seq = 0; bytes = 1500;
      inflight_bytes = 0; kind = `Dupack };
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

(* A Cubic driven by one random sequence of events, then [reset], then by a
   second, shows the same window after every event of the second, bit for
   bit, as a fresh Cubic driven by the second alone, through the same
   adapter it was made with, as [Wan] reuses it.  An event is an ACK, a
   dup-ACK loss, a timeout or Nimbus's [reset_cwnd], at a random gap and
   with a random smoothed RTT; each sequence starts its clock at 0, so a
   reset that kept the old loss epoch or recovery deadline shows. *)
let prop_cubic_reset_is_fresh =
  let event =
    QCheck.(triple (int_range 0 9) (int_range 0 300) (int_range 1 400))
  in
  QCheck.Test.make ~count:300 ~name:"cubic: a reset controller is a fresh one"
    QCheck.(pair (list event) (list event))
    (fun (first, second) ->
      let drive c (cc : Cc_types.t) events =
        let now = ref 0. in
        List.map
          (fun (kind, gap_ms, srtt_ms) ->
            now := !now +. (float_of_int gap_ms *. 1e-3);
            let at = Time.secs !now and srtt = Time.ms (float_of_int srtt_ms) in
            let loss kind =
              { Cc_types.times = { now = at }; seq = 0; bytes = 1500;
                inflight_bytes = 0; kind }
            in
            (match kind with
            | 0 -> cc.on_loss (loss `Dupack)
            | 1 -> cc.on_loss (loss `Timeout)
            | 2 -> Cubic.reset_cwnd c (B.bytes (float_of_int (srtt_ms * 1500)))
            | _ ->
              cc.on_ack
                { Cc_types.times = { now = at; rtt = srtt; min_rtt = srtt; srtt };
                  seq = 0; bytes = 1500; inflight_bytes = 0;
                  delivered_bytes = 0 });
            Int64.bits_of_float (B.to_float (Cubic.cwnd_bytes c)))
          events
      in
      let reused = Cubic.create () in
      let cc = Cubic.cc reused in
      ignore (drive reused cc first);
      Cubic.reset reused;
      let fresh = Cubic.create () in
      drive reused cc second = drive fresh (Cubic.cc fresh) second)

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

(* Karn's rule hands a controller [Time.unknown] as the RTT of an ACK for a
   retransmitted packet, and a flow's first ACK can be one.  BBR's min
   filter skips the NaN: a run that starts with such an ACK ends with the
   window of a run without it.  A [Float.min] fold let the NaN win the RTT
   estimate for 10 s, and with it the window fell to its 10-segment
   floor. *)
let test_bbr_skips_nan_rtt () =
  let run ~nan_first =
    let cc = Bbr.make () in
    let ack =
      { Cc_types.times =
          { now = Time.secs 0.1; rtt = Time.unknown; min_rtt = Time.unknown;
            srtt = Time.ms 50. };
        seq = 0; bytes = 1500; inflight_bytes = 15_000; delivered_bytes = 0 }
    in
    let tick =
      { Cc_types.now = Time.secs 0.1; send_rate = Rate.mbps 48.;
        recv_rate = Rate.mbps 48.; rtt = Time.ms 50.; srtt = Time.ms 50.;
        min_rtt = Time.ms 50.; inflight_bytes = 15_000; delivered_bytes = 0;
        lost_packets = 0 }
    in
    if nan_first then cc.on_ack ack;
    for k = 0 to 1999 do
      let now = Time.secs (0.1 +. (float_of_int k *. 1e-3)) in
      ack.times.now <- now;
      ack.times.rtt <- Time.ms (50. +. float_of_int (k mod 7));
      ack.seq <- k + 1;
      cc.on_ack ack;
      if k mod 10 = 0 then begin
        tick.now <- now;
        (Option.get cc.on_tick) tick
      end
    done;
    B.to_float (cc.cwnd ())
  in
  let clean = run ~nan_first:false in
  Alcotest.(check bool) "the clean run's window is past the floor" true
    (clean > 10. *. 1500.);
  Alcotest.(check (float 0.)) "window after a first NaN RTT" clean
    (run ~nan_first:true)

(* Minor words that [on_ack] allocates per ACK, in steady state: one flow
   alone on a 96 Mbit/s, 50 ms dumbbell, counted from 10 s to 12 s (the
   RTT window is full and the filters have grown).  The count is exact:
   the wrapper reads [Gc.minor_words] unboxed and sums into a float
   array. *)
let on_ack_words cc =
  let e, _, topo, route = make_link ~rate_bps:96e6 () in
  let words = Float.Array.make 1 0. and acks = ref 0 and counting = ref false in
  let on_ack a =
    if !counting then begin
      let before = Gc.minor_words () in
      cc.Cc_types.on_ack a;
      Float.Array.set words 0
        (Float.Array.get words 0 +. (Gc.minor_words () -. before));
      incr acks
    end
    else cc.Cc_types.on_ack a
  in
  ignore
    (Flow.create_via topo ~route ~cc:{ cc with on_ack } ~prop_rtt:rtt50 ());
  Engine.run_until e (Time.secs 10.);
  counting := true;
  Engine.run_until e (Time.secs 12.);
  Alcotest.(check bool) "~2 s of ACKs" true (!acks > 10_000);
  Float.Array.get words 0 /. float_of_int !acks

(* 0.01 measured.  Two [Queue]s of tuples folded every 10 ms cost 18.2. *)
let test_bbr_on_ack_words () =
  let w = on_ack_words (Bbr.make ()) in
  if w > 0.1 then Alcotest.failf "%.2f minor words per ACK (want <= 0.1)" w

(* 2.0 measured: the boxed window, as Cubic's.  A [Queue] of records
   scanned every 10 ms and a tuple cache cost 35.3. *)
let test_copa_on_ack_words () =
  let w = on_ack_words (Copa.make ()) in
  if w > 2.1 then Alcotest.failf "%.2f minor words per ACK (want <= 2.1)" w

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

(* A finished paced flow's pacer stops: a 30 KB transfer at 4 Mbit/s
   completes in under 0.1 s, and its controller is not asked for its rate
   again, nor is anything left pending, for the rest of a 10 s run. *)
let test_finished_flow_pacer_stops () =
  let e, _, topo, route = make_link () in
  let inner = Simple_cc.const_rate ~rate:(Rate.bps 4e6) in
  let asks = ref 0 in
  let cc =
    { inner with
      Cc_types.pacing_rate =
        (fun () ->
          incr asks;
          inner.Cc_types.pacing_rate ()) }
  in
  let f =
    Flow.create_via topo ~route ~cc ~prop_rtt:rtt50
      ~source:(Flow.Finite 30_000) ()
  in
  Engine.run_until e (Time.secs 1.);
  let asks_at_1s = !asks in
  Alcotest.(check bool) "completed" true (Flow.completion_time f <> None);
  Alcotest.(check bool) "asked while sending" true (asks_at_1s > 0);
  Alcotest.(check int) "nothing pending once finished" 0 (Engine.pending e);
  Engine.run_until e (Time.secs 10.);
  Alcotest.(check int) "no asks after it finished" asks_at_1s !asks

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

(* The tick record is refilled, and a time or rate box is kept while its
   value holds: at every tick of a paced flow that loses packets, each
   field still reads what the flow reports, bit for bit. *)
let test_tick_record_refilled () =
  let e, _, topo, route = make_link ~rate_bps:12e6 ~buffer_s:0.02 () in
  let flow = ref None and ticks = ref 0 and records = ref [] in
  let bits x = Int64.bits_of_float x in
  let inner = Simple_cc.const_rate ~rate:(Rate.mbps 16.) in
  let on_tick (tk : Cc_types.tick) =
    let f = Option.get !flow in
    incr ticks;
    if not (List.memq tk !records) then records := tk :: !records;
    let same what a b =
      if bits a <> bits b then
        Alcotest.failf "tick %d: %s %h, flow %h" !ticks what a b
    in
    same "now" (Time.to_secs tk.now) (Time.to_secs (Engine.now e));
    same "send_rate" (Rate.to_bps tk.send_rate) (Rate.to_bps (Flow.send_rate f));
    same "recv_rate" (Rate.to_bps tk.recv_rate) (Rate.to_bps (Flow.recv_rate f));
    same "rtt" (Time.to_secs tk.rtt) (Time.to_secs (Flow.last_rtt f));
    same "srtt" (Time.to_secs tk.srtt) (Time.to_secs (Flow.srtt f));
    same "min_rtt" (Time.to_secs tk.min_rtt) (Time.to_secs (Flow.min_rtt f));
    Alcotest.(check (list int)) "counters"
      [ Flow.inflight_bytes f; Flow.acked_bytes f; Flow.lost_packets f ]
      [ tk.inflight_bytes; tk.delivered_bytes; tk.lost_packets ]
  in
  let cc = { inner with Cc_types.on_tick = Some on_tick } in
  flow := Some (Flow.create_via topo ~route ~cc ~prop_rtt:rtt50 ());
  Engine.run_until e (Time.secs 3.);
  Alcotest.(check bool) "ticked and lost" true
    (!ticks > 250 && Flow.lost_packets (Option.get !flow) > 0);
  Alcotest.(check int) "one record, refilled" 1 (List.length !records)

(* An RTO queues the live seqs for retransmission in ascending order, as
   sorting them did: on random scoreboards of 16 to 256 indices (grown
   tables) whose live seqs span up to four times the table, [rto_order]
   gives the sorted seqs and frees every index. *)
let prop_rto_order_sorted =
  QCheck.Test.make ~count:300 ~name:"flow: RTO drain order is the sorted live seqs"
    QCheck.(
      quad (int_range 4 8) (int_range 0 1_000_000) (int_range 1 4)
        (int_range 0 100_000))
    (fun (log2, base, spans, seed) ->
      let n = 1 lsl log2 in
      let table = Array.make n (-1) in
      let rng = Rng.create seed in
      for _ = 1 to Rng.int rng (n + 1) do
        let s = base + Rng.int rng (spans * n) in
        if table.(s land (n - 1)) < 0 then table.(s land (n - 1)) <- s
      done;
      let sorted =
        List.sort Int.compare
          (List.filter (fun s -> s >= 0) (Array.to_list table))
      in
      let got = Array.to_list (Flow.rto_order table) in
      got = sorted && Array.for_all (fun s -> s = -1) table)

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
        Alcotest.test_case "released buffers not aliased" `Quick
          test_released_buffers_not_aliased;
        Alcotest.test_case "recycled record inert to its past" `Quick
          test_recycled_record_inert;
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
        Alcotest.test_case "RTO timeout allocates nothing" `Quick
          test_rto_timeout_allocation;
        Alcotest.test_case "pacer wake allocates nothing" `Quick
          test_pacer_wake_allocates_nothing;
        QCheck_alcotest.to_alcotest prop_rto_order_sorted;
        Alcotest.test_case "tick record refilled" `Quick
          test_tick_record_refilled;
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
        Alcotest.test_case "reset_cwnd" `Quick test_cubic_reset_cwnd;
        QCheck_alcotest.to_alcotest prop_cubic_reset_is_fresh ] );
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
          test_copa_default_under_light_cbr;
        Alcotest.test_case "on_ack words per ACK" `Quick
          test_copa_on_ack_words ] );
    ( "cc.bbr",
      [ Alcotest.test_case "estimates bandwidth" `Quick
          test_bbr_estimates_bandwidth;
        Alcotest.test_case "a NaN RTT never wins the min" `Quick
          test_bbr_skips_nan_rtt;
        Alcotest.test_case "on_ack words per ACK" `Quick test_bbr_on_ack_words
      ] );
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
        Alcotest.test_case "finished paced flow's pacer stops" `Quick
          test_finished_flow_pacer_stops;
        Alcotest.test_case "fixed window" `Quick test_fixed_window_is_capped;
        Alcotest.test_case "validation" `Quick test_validation_errors ] ) ]
