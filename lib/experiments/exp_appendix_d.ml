(* Appendix D (Fig. 23/24): where Copa's mode detection goes wrong.

   Fig. 23: CBR cross traffic at 24 vs 80 Mbit/s on a 96 Mbit/s link.  At
   80 Mbit/s the queue cannot drain within 5 RTTs (max drain rate µ−z), so
   Copa sticks in competitive mode and drives delay up; Nimbus classifies
   the CBR as inelastic and keeps the queue short in both cases.

   Fig. 24: one NewReno cross-flow at 1x vs 4x the flow's RTT.  The slowly
   ramping 4x flow lets Copa drain its queue on schedule, so Copa stays in
   default mode and surrenders throughput; Nimbus detects the elasticity and
   takes its share. *)

module Engine = Nimbus_sim.Engine
module Flow = Nimbus_cc.Flow
module Source = Nimbus_traffic.Source
module Time = Units.Time
module Rate = Units.Rate

let id = "appd"

let title = "Fig 23/24 (App D): Copa failure modes vs Nimbus"

let cbr_case (p : Common.profile) ~rate ~seed (sch : Common.scheme) =
  let l = Common.link ~mbps:96. ~rtt_ms:50. ~buffer_bdp:2.0 () in
  let horizon = Common.scaled p 60. in
  let net = Common.setup ~seed l in
  let { Common.engine; topo; route; _ } = net in
  ignore (Source.cbr_via topo ~route ~rate:(Rate.bps rate) ());
  let running = sch.Common.start_flow net () in
  let stats = Common.instrument net running ~until:(Time.secs horizon) in
  Engine.run_until engine (Time.secs horizon);
  ( Common.mean stats.Common.tput_series ~lo:10. ~hi:horizon,
    Common.mean stats.Common.qdelay_series ~lo:10. ~hi:horizon )

let reno_case (p : Common.profile) ~ratio ~seed (sch : Common.scheme) =
  let l = Common.link ~mbps:96. ~rtt_ms:50. ~buffer_bdp:2.0 () in
  let horizon = Common.scaled p 60. in
  let net = Common.setup ~seed l in
  let { Common.engine; topo; route; _ } = net in
  ignore
    (Flow.create_via topo ~route ~cc:(Nimbus_cc.Reno.make ())
       ~prop_rtt:(Time.scale ratio l.Common.prop_rtt) ());
  let running = sch.Common.start_flow net () in
  let stats = Common.instrument net running ~until:(Time.secs horizon) in
  Engine.run_until engine (Time.secs horizon);
  Common.mean stats.Common.tput_series ~lo:10. ~hi:horizon

let run (p : Common.profile) =
  let schemes = [ Common.nimbus (); Common.copa ] in
  let fig23 =
    List.concat_map
      (fun rate_m ->
        List.map
          (fun sch ->
            let tput, qd = cbr_case p ~rate:(rate_m *. 1e6) ~seed:23 sch in
            [ Printf.sprintf "%.0fM CBR" rate_m; sch.Common.scheme_name;
              Table.fmt_mbps tput; Table.fmt_ms qd ])
          schemes)
      [ 24.; 80. ]
  in
  let fig24 =
    List.concat_map
      (fun ratio ->
        List.map
          (fun sch ->
            let tput = reno_case p ~ratio ~seed:24 sch in
            [ Printf.sprintf "%.0fx RTT NewReno" ratio;
              sch.Common.scheme_name; Table.fmt_mbps tput ])
          schemes)
      [ 1.; 4. ]
  in
  [ Table.make ~title:"Fig 23 (App D.1): CBR cross traffic"
      ~header:[ "cross"; "scheme"; "tput(Mbps)"; "qdelay(ms)" ]
      ~notes:
        [ "shape: at 80M CBR copa sticks in competitive mode (high delay); \
           nimbus keeps delay low in both cases" ]
      fig23;
    Table.make ~title:"Fig 24 (App D.2): NewReno cross-flow RTT"
      ~header:[ "cross"; "scheme"; "tput(Mbps)" ]
      ~notes:
        [ "shape: at 4x RTT copa loses its share (misclassifies as \
           non-buffer-filling); nimbus holds an RTT-biased fair share" ]
      fig24 ]
