(* Appendix C (Fig. 22): competing with BBR across buffer sizes.  In shallow
   buffers BBR is rate-based and over-aggressive (both Nimbus and Cubic get
   little); in deep buffers BBR becomes CWND-limited/ACK-clocked, Nimbus
   classifies it elastic and competes like Cubic.  The claim: Nimbus ≈ Cubic
   at every buffer size. *)

module Engine = Nimbus_sim.Engine
module Flow = Nimbus_cc.Flow
module Time = Units.Time

let id = "appc"

let title = "Fig 22 (App C): throughput vs one BBR flow across buffer sizes"

let case (p : Common.profile) ~buffer_bdp ~seed (sch : Common.scheme) =
  let l = Common.link ~mbps:96. ~rtt_ms:50. ~buffer_bdp () in
  let horizon = Common.scaled p 120. in
  let net = Common.setup ~seed l in
  let { Common.engine; topo; route; _ } = net in
  ignore
    (Flow.create_via topo ~route ~cc:(Nimbus_cc.Bbr.make ())
       ~prop_rtt:l.Common.prop_rtt ());
  let running = sch.Common.start_flow net () in
  let stats = Common.instrument net running ~until:(Time.secs horizon) in
  Engine.run_until engine (Time.secs horizon);
  Common.mean stats.Common.tput_series ~lo:10. ~hi:horizon

let run (p : Common.profile) =
  let buffers = [ 0.5; 1.; 2.; 4. ] in
  let rows =
    List.map
      (fun buffer_bdp ->
        let nim = case p ~buffer_bdp ~seed:22 (Common.nimbus ()) in
        let cub = case p ~buffer_bdp ~seed:22 Common.cubic in
        [ Table.fmt_float ~digits:1 buffer_bdp; Table.fmt_mbps nim;
          Table.fmt_mbps cub ])
      buffers
  in
  [ Table.make ~title
      ~header:[ "buffer (BDP)"; "nimbus tput(Mbps)"; "cubic tput(Mbps)" ]
      ~notes:
        [ "shape: nimbus ~cubic at every buffer size; both small in shallow \
           buffers (BBR over-aggressive), larger in deep buffers" ]
      rows ]
