(* A bulk transfer sharing a home link with a DASH video stream (the paper's
   Fig. 11 scenario).  With 1080p video the stream is application-limited,
   so Nimbus keeps the queue short; the video's playback buffer stays
   healthy either way.  Run with: dune exec examples/video_streaming.exe *)

module Engine = Nimbus_sim.Engine
module Bottleneck = Nimbus_sim.Bottleneck
module Qdisc = Nimbus_sim.Qdisc
module Topology = Nimbus_topology.Topology
module Flow = Nimbus_cc.Flow
module Nimbus = Nimbus_core.Nimbus
module Z = Nimbus_core.Z_estimator
module Video = Nimbus_traffic.Video
module Time = Units.Time
module Rate = Units.Rate

let () =
  let engine = Engine.create Engine.Config.default in
  let mu = Rate.mbps 48. in
  let qdisc =
    Qdisc.droptail
      ~capacity_bytes:(int_of_float (Rate.to_bps mu *. 0.1 /. 8.))
  in
  (* the paper's network: one FIFO bottleneck, a one-link topology *)
  let topo, route =
    Topology.dumbbell engine (Topology.Link.Config.default ~rate:mu ~qdisc)
  in
  let bottleneck = Topology.link_bottleneck (List.hd (Topology.links topo)) in
  let video = Video.create topo ~route ~ladder:Video.ladder_1080p () in
  let nimbus = Nimbus.create (Nimbus.Config.default ~mu:(Z.Mu.known mu)) in
  let flow =
    Flow.create_via topo ~route
      ~cc:(Nimbus.cc nimbus ~now:(fun () -> Engine.now engine))
      ~prop_rtt:(Time.ms 50.) ()
  in
  let last = ref 0 in
  Engine.every engine ~dt:(Time.secs 5.0) (fun () ->
      let bytes = Flow.received_bytes flow in
      Printf.printf
        "t=%3.0fs  bulk=%5.1f Mbps  queue=%5.1f ms  mode=%-11s | video: %4.1f \
         Mbps rung, %4.1f s buffered, %d chunks, %.1f s stalled\n"
        (Time.to_secs (Engine.now engine))
        (float_of_int ((bytes - !last) * 8) /. 5. /. 1e6)
        (Time.to_ms (Bottleneck.queue_delay bottleneck))
        (Nimbus.mode_to_string (Nimbus.mode nimbus))
        (Rate.to_mbps (Video.current_bitrate video))
        (Time.to_secs (Video.buffer video))
        (Video.chunks_fetched video)
        (Time.to_secs (Video.rebuffer video));
      last := bytes);
  Engine.run_until engine (Time.secs 120.);
  print_endline
    "done: expect mostly delay mode, short queue, and a stable video buffer."
