(* Quickstart: the smallest end-to-end use of the library.

   Build a 48 Mbit/s bottleneck (a one-link topology), attach one Nimbus
   flow, throw first elastic then inelastic cross traffic at it, and watch
   the elasticity detector drive the mode.
   Run with:  dune exec examples/quickstart.exe *)

module Engine = Nimbus_sim.Engine
module Bottleneck = Nimbus_sim.Bottleneck
module Qdisc = Nimbus_sim.Qdisc
module Topology = Nimbus_topology.Topology
module Rng = Nimbus_sim.Rng
module Flow = Nimbus_cc.Flow
module Nimbus = Nimbus_core.Nimbus
module Z = Nimbus_core.Z_estimator
module Source = Nimbus_traffic.Source
module Time = Units.Time
module Rate = Units.Rate

let () =
  let engine = Engine.create Engine.Config.default in
  let mu = Rate.mbps 48. in
  (* 100 ms of buffering, the paper's default *)
  let qdisc =
    Qdisc.droptail
      ~capacity_bytes:(int_of_float (Rate.to_bps mu *. 0.1 /. 8.))
  in
  (* the paper's network: one FIFO bottleneck, a one-link topology *)
  let topo, route =
    Topology.dumbbell engine (Topology.Link.Config.default ~rate:mu ~qdisc)
  in
  let bottleneck = Topology.link_bottleneck (List.hd (Topology.links topo)) in

  (* the Nimbus flow: Cubic when cross traffic is elastic, BasicDelay
     otherwise, switching on the FFT elasticity metric *)
  let nimbus = Nimbus.create (Nimbus.Config.default ~mu:(Z.Mu.known mu)) in
  let flow =
    Flow.create_via topo ~route
      ~cc:(Nimbus.cc nimbus ~now:(fun () -> Engine.now engine))
      ~prop_rtt:(Time.ms 50.) ()
  in

  (* cross traffic: a Cubic flow from t=20..60, then 24 Mbit/s Poisson *)
  Engine.schedule_at engine (Time.secs 20.) (fun () ->
      let cross =
        Flow.create_via topo ~route ~cc:(Nimbus_cc.Cubic.make ())
          ~prop_rtt:(Time.ms 50.) ()
      in
      Engine.schedule_at engine (Time.secs 60.) (fun () -> Flow.apply cross Flow.Control.Stop));
  ignore
    (Source.poisson_via topo ~route ~rng:(Rng.create 7) ~rate:(Rate.mbps 24.)
       ~start:(Time.secs 60.) ());

  (* report once per second *)
  let last = ref 0 in
  Engine.every engine ~dt:(Time.secs 1.0) (fun () ->
      let bytes = Flow.received_bytes flow in
      Printf.printf "t=%3.0fs  tput=%5.1f Mbps  queue=%5.1f ms  mode=%-11s eta=%.2f\n"
        (Time.to_secs (Engine.now engine))
        (float_of_int ((bytes - !last) * 8) /. 1e6)
        (Time.to_ms (Bottleneck.queue_delay bottleneck))
        (Nimbus.mode_to_string (Nimbus.mode nimbus))
        (Nimbus.last_eta nimbus);
      last := bytes);
  Engine.run_until engine (Time.secs 100.);
  print_endline "done: expect delay mode (low queue) except during 20-60s."
