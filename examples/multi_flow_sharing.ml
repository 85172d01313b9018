(* Three Nimbus flows sharing one bottleneck with no explicit coordination
   (§6): one elects itself pulser, the others watch its pulse frequency to
   learn the mode, and everyone keeps the queue short.
   Run with: dune exec examples/multi_flow_sharing.exe *)

module Engine = Nimbus_sim.Engine
module Bottleneck = Nimbus_sim.Bottleneck
module Qdisc = Nimbus_sim.Qdisc
module Topology = Nimbus_topology.Topology
module Flow = Nimbus_cc.Flow
module Nimbus = Nimbus_core.Nimbus
module Z = Nimbus_core.Z_estimator
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
  let bottleneck = Topology.link_bottleneck (List.hd (Topology.links topo)) in
  let flows =
    List.init 3 (fun i ->
        let nim =
          Nimbus.create
            { (Nimbus.Config.default ~mu:(Z.Mu.known mu)) with
              multi_flow = true; seed = 1000 + (31 * i) }
        in
        let flow =
          Flow.create_via topo ~route
            ~cc:(Nimbus.cc nim ~now:(fun () -> Engine.now engine))
            ~prop_rtt:(Time.ms 50.)
            ~start:(Time.secs (float_of_int i *. 15.))
            ()
        in
        (i, nim, flow, ref 0))
  in
  Engine.every engine ~dt:(Time.secs 5.0) (fun () ->
      Printf.printf "t=%3.0fs  queue=%5.1f ms |"
        (Time.to_secs (Engine.now engine))
        (Time.to_ms (Bottleneck.queue_delay bottleneck));
      List.iter
        (fun (i, nim, flow, last) ->
          let bytes = Flow.received_bytes flow in
          Printf.printf " f%d: %5.1f Mbps %s/%s" i
            (float_of_int ((bytes - !last) * 8) /. 5. /. 1e6)
            (Nimbus.role_to_string (Nimbus.role nim))
            (Nimbus.mode_to_string (Nimbus.mode nim));
          last := bytes)
        flows;
      print_newline ());
  Engine.run_until engine (Time.secs 120.);
  print_endline
    "done: expect at most one pulser, roughly equal shares, and delay mode \
     for most of the run (transient competitive episodes during arrivals \
     are normal)."
