(* Fig. 11: DASH video streams as cross traffic on a 48 Mbit/s link.  The 4K
   ladder exceeds the fair share, so the stream is network-limited and
   elastic; the 1080p ladder tops out below it, so the client idles between
   chunks and the stream is inelastic.  Nimbus should match Cubic's
   throughput in both cases while cutting delay against 1080p; Copa/Vegas
   starve against the 4K stream. *)

module Engine = Nimbus_sim.Engine
module Video = Nimbus_traffic.Video
module Time = Units.Time

let id = "fig11"

let title = "Fig 11: throughput/delay against DASH video cross traffic"

let run_case (p : Common.profile) ~ladder ~seed (sch : Common.scheme) =
  let l = Common.link ~mbps:48. ~rtt_ms:50. ~buffer_bdp:2.0 () in
  let horizon = Common.scaled p 120. in
  let net = Common.setup ~seed l in
  let { Common.engine; topo; route; _ } = net in
  let _video = Video.create topo ~route ~ladder () in
  let running = sch.Common.start_flow net () in
  let stats = Common.instrument net running ~until:(Time.secs horizon) in
  Engine.run_until engine (Time.secs horizon);
  let lo = 15. and hi = horizon in
  ( Common.mean stats.Common.tput_series ~lo ~hi,
    Common.mean stats.Common.rtt_series ~lo ~hi )

let run (p : Common.profile) =
  let schemes = Common.nimbus () :: Common.all_baselines in
  let table ~name ~ladder ~seed ~notes =
    Table.make ~title:(Printf.sprintf "Fig 11 (%s video cross traffic)" name)
      ~header:[ "scheme"; "tput(Mbps)"; "mean rtt(ms)" ]
      ~notes
      (List.map
         (fun sch ->
           let tput, rtt = run_case p ~ladder ~seed sch in
           [ sch.Common.scheme_name; Table.fmt_mbps tput; Table.fmt_ms rtt ])
         schemes)
  in
  [ table ~name:"4K (elastic)" ~ladder:Video.ladder_4k ~seed:41
      ~notes:
        [ "shape: nimbus ~cubic tput; copa/vegas starve against the \
           aggressive stream" ];
    table ~name:"1080p (inelastic)" ~ladder:Video.ladder_1080p ~seed:42
      ~notes:
        [ "shape: all schemes get ~similar tput; nimbus/vegas/copa at \
           much lower rtt than cubic" ] ]
