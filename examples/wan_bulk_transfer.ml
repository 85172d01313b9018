(* A long transfer through a busy wide-area bottleneck: heavy-tailed cross
   traffic at 50% load (the paper's trace-driven setup, Fig. 9/12).  Shows
   the detector's verdict tracking the true elastic byte share.
   Run with: dune exec examples/wan_bulk_transfer.exe *)

module Engine = Nimbus_sim.Engine
module Qdisc = Nimbus_sim.Qdisc
module Topology = Nimbus_topology.Topology
module Rng = Nimbus_sim.Rng
module Flow = Nimbus_cc.Flow
module Nimbus = Nimbus_core.Nimbus
module Z = Nimbus_core.Z_estimator
module Wan = Nimbus_traffic.Wan
module Time = Units.Time
module Rate = Units.Rate

let () =
  let engine = Engine.create Engine.Config.default in
  let mu = Rate.mbps 96. in
  let qdisc =
    Qdisc.droptail
      ~capacity_bytes:(int_of_float (Rate.to_bps mu *. 0.1 /. 8.))
  in
  (* the paper's network: one FIFO bottleneck, a one-link topology *)
  let topo, route =
    Topology.dumbbell engine (Topology.Link.Config.default ~rate:mu ~qdisc)
  in
  let wan =
    Wan.create topo ~route ~rng:(Rng.create 42) ~load:(Rate.scale 0.5 mu) ()
  in
  let nimbus = Nimbus.create (Nimbus.Config.default ~mu:(Z.Mu.known mu)) in
  let flow =
    Flow.create_via topo ~route
      ~cc:(Nimbus.cc nimbus ~now:(fun () -> Engine.now engine))
      ~prop_rtt:(Time.ms 50.) ()
  in
  let last = ref 0 and prev_elastic = ref 0 and prev_total = ref 0 in
  Engine.every engine ~dt:(Time.secs 2.0) (fun () ->
      let bytes = Flow.received_bytes flow in
      let elastic, total = Wan.bytes_split wan in
      let de = elastic - !prev_elastic and dt = total - !prev_total in
      let frac =
        if dt > 0 then float_of_int de /. float_of_int dt else 0.
      in
      prev_elastic := elastic;
      prev_total := total;
      Printf.printf
        "t=%3.0fs  tput=%5.1f Mbps  rtt=%5.1f ms  mode=%-11s  true elastic \
         share=%3.0f%%  active cross flows=%d\n"
        (Time.to_secs (Engine.now engine))
        (float_of_int ((bytes - !last) * 8) /. 2. /. 1e6)
        (Time.to_ms (Flow.last_rtt flow))
        (Nimbus.mode_to_string (Nimbus.mode nimbus))
        (100. *. frac) (Wan.active_count wan);
      last := bytes);
  Engine.run_until engine (Time.secs 120.);
  print_endline
    "done: competitive mode should appear when persistent elastic flows \
     dominate; short slow-start flows count as elastic bytes but are \
     invisible to the detector by design (paper 3.2).";
  Printf.printf "cross flows completed: %d, skipped at cap: %d\n"
    (Array.length (Wan.fcts wan)) (Wan.skipped wan)
