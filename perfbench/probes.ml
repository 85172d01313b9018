(* Isolated layer probes: each drives one layer's public functions in a
   tight loop, so a change to that layer shows up without the rest of a
   simulation around it.  A probe runs [batches] batches of [units] units
   of work and reports the median batch's ns per unit and the mean minor
   words per unit. *)

module Engine = Nimbus_sim.Engine
module Bottleneck = Nimbus_sim.Bottleneck
module Qdisc = Nimbus_sim.Qdisc
module Packet = Nimbus_sim.Packet
module Topology = Nimbus_topology.Topology
module Flow = Nimbus_cc.Flow
module Cc_types = Nimbus_cc.Cc_types
module Nimbus = Nimbus_core.Nimbus
module Z = Nimbus_core.Z_estimator
module Time = Units.Time
module Rate = Units.Rate

type cost = {
  ns : float;  (** per unit, median over batches *)
  words : float;  (** minor words per unit *)
}

let measure_with ~prepare ~batches ~units batch =
  batch (prepare ());
  let times = ref [] and words = ref 0. in
  for _ = 1 to batches do
    let x = prepare () in
    let w0 = Gc.minor_words () in
    let t0 = Meter.now () in
    batch x;
    let w1 = Gc.minor_words () in
    times := Meter.since t0 :: !times;
    words := !words +. (w1 -. w0)
  done;
  { ns = Meter.median !times *. 1e9 /. float_of_int units;
    words = !words /. float_of_int (batches * units) }

let measure = measure_with ~prepare:(fun () -> ())

let drain_all engine =
  Engine.run_until engine (Time.add (Engine.now engine) (Time.secs 1.))

(* Engine.schedule_in + run_until on a reused engine: 1000 no-op events *)
let engine_event ~batches =
  let e = Engine.create Engine.Config.default in
  let delays = Array.init 97 (fun i -> Time.us (float_of_int (i * 100))) in
  let noop () = () in
  measure ~batches ~units:1000 (fun () ->
      for i = 0 to 999 do
        Engine.schedule_in e delays.(i mod 97) noop
      done;
      drain_all e)

let pkt_batch = 1000

(* Bottleneck.enqueue -> sink on a 1 Gbit/s link: 1000 packets per batch,
   packet creation included as a sender pays it *)
let bottleneck_pkt ~batches =
  let e = Engine.create Engine.Config.default in
  let b =
    Bottleneck.create e
      (Bottleneck.Config.default ~rate:(Rate.gbps 1.)
         ~qdisc:(Qdisc.droptail ~capacity_bytes:(4 * pkt_batch * 1500)))
  in
  Bottleneck.set_sink b ~flow:0 ignore;
  let seq = ref 0 in
  measure ~batches ~units:pkt_batch (fun () ->
      for _ = 1 to pkt_batch do
        incr seq;
        Bottleneck.enqueue b
          (Packet.make ~flow:0 ~seq:!seq ~size:1500 ~now:(Engine.now e) ())
      done;
      drain_all e)

(* a 3-hop Topology.attach chain, 1 Gbit/s and 1 ms propagation per hop;
   cost per packet-hop *)
let hops = 3

let topology_hop ~batches =
  let e = Engine.create Engine.Config.default in
  let topo = Topology.create e in
  let nodes =
    Array.init (hops + 1) (fun i -> Topology.add_node topo (string_of_int i))
  in
  let links =
    List.init hops (fun i ->
        Topology.add_link topo ~src:nodes.(i) ~dst:nodes.(i + 1)
          { bottleneck =
              Bottleneck.Config.default ~rate:(Rate.gbps 1.)
                ~qdisc:(Qdisc.droptail ~capacity_bytes:(4 * pkt_batch * 1500));
            prop_delay = Time.ms 1. })
  in
  let ingress =
    Topology.attach topo ~route:(Topology.Route.of_links links) ~flow:0
      ~sink:ignore
  in
  let seq = ref 0 in
  measure ~batches ~units:(pkt_batch * hops) (fun () ->
      for _ = 1 to pkt_batch do
        incr seq;
        ingress
          (Packet.make ~flow:0 ~seq:!seq ~size:1500 ~now:(Engine.now e) ())
      done;
      drain_all e)

(* Flow.create_via on one dumbbell, controllers made beforehand; cost per
   flow.  Flows accumulate on the topology across batches, as they do in a
   large scenario's set-up. *)
let flow_setup ~batches =
  let per = 100 in
  let e = Engine.create Engine.Config.default in
  let topo, route =
    Topology.dumbbell e
      (Topology.Link.Config.default ~rate:(Rate.mbps 96.)
         ~qdisc:(Qdisc.droptail ~capacity_bytes:1_200_000))
  in
  measure_with ~batches ~units:per
    ~prepare:(fun () -> Array.init per (fun _ -> Nimbus_cc.Cubic.make ()))
    (Array.iter (fun cc ->
         ignore (Flow.create_via topo ~route ~cc ~prop_rtt:(Time.ms 50.) ())))

(* a Nimbus controller driven by synthetic 10 ms ticks, run past one FFT
   window first so every measured tick is a steady one *)
let nimbus_tick ~batches ~watcher =
  let mu = Rate.mbps 96. in
  let nim =
    Nimbus.create
      { (Nimbus.Config.default ~mu:(Z.Mu.known mu)) with
        multi_flow = watcher;
        (* no election: the probe must stay a watcher *)
        kappa = (if watcher then 0. else 1.) }
  in
  let now = ref 0. in
  let cc = Nimbus.cc nim ~now:(fun () -> Time.secs !now) in
  let tick = Option.get cc.Cc_types.on_tick in
  (* a watcher hears a pulser: its receive rate carries a 5 Hz tone *)
  let pi = 4. *. atan 1. in
  let step () =
    now := !now +. 0.01;
    let recv =
      if watcher then 30e6 +. (6e6 *. sin (2. *. pi *. 5. *. !now)) else 46e6
    in
    tick
      { Cc_types.now = Time.secs !now; send_rate = Rate.bps 48e6;
        recv_rate = Rate.bps recv; rtt = Time.ms 55.; srtt = Time.ms 55.;
        min_rtt = Time.ms 50.; inflight_bytes = 300_000; delivered_bytes = 0;
        lost_packets = 0 }
  in
  for _ = 1 to 600 do
    step ()
  done;
  measure ~batches ~units:1000 (fun () ->
      for _ = 1 to 1000 do
        step ()
      done)

type all = {
  engine : cost;
  bottleneck : cost;
  topology : cost;
  flow_setup : cost;
  tick : cost;
  watcher : cost;
}

let run ~batches =
  { engine = engine_event ~batches; bottleneck = bottleneck_pkt ~batches;
    topology = topology_hop ~batches; flow_setup = flow_setup ~batches;
    tick = nimbus_tick ~batches ~watcher:false;
    watcher = nimbus_tick ~batches ~watcher:true }
