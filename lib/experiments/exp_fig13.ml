(* Fig. 13: sensitivity to offered load and pulse size.  WAN cross traffic at
   50% and 90% of the link; Nimbus with pulse amplitudes 0.125µ and 0.25µ,
   against Cubic and Vegas anchors.  Nimbus should keep Cubic-like
   throughput with lower delay, benefits shrinking as load grows and with
   the smaller pulse. *)

module Engine = Nimbus_sim.Engine
module Rng = Nimbus_sim.Rng
module Wan = Nimbus_traffic.Wan
module Time = Units.Time
module Rate = Units.Rate

let id = "fig13"

let title = "Fig 13: WAN load x pulse size"

let run_one (p : Common.profile) ~load_frac ~seed (sch : Common.scheme) =
  let l = Common.link ~mbps:96. ~rtt_ms:50. ~buffer_bdp:2.0 () in
  let horizon = Common.scaled p 120. in
  let net = Common.setup ~seed l in
  let { Common.engine; topo; route; rng; _ } = net in
  let _wan =
    Wan.create topo ~route ~rng:(Rng.split rng)
      ~load:(Rate.scale load_frac l.Common.mu) ()
  in
  let running = sch.Common.start_flow net () in
  let stats = Common.instrument net running ~until:(Time.secs horizon) in
  Engine.run_until engine (Time.secs horizon);
  let lo = 10. and hi = horizon in
  ( Common.pct stats.Common.tput_series ~lo ~hi 50.,
    Common.pct stats.Common.rtt_series ~lo ~hi 50. )

let run (p : Common.profile) =
  let cases load =
    [ Common.nimbus ~name:"nimbus(0.25)" ~pulse_frac:0.25 ();
      Common.nimbus ~name:"nimbus(0.125)" ~pulse_frac:0.125 ();
      Common.cubic; Common.vegas ]
    |> List.map (fun sch ->
           let tput, rtt = run_one p ~load_frac:load ~seed:13 sch in
           [ Table.fmt_pct load; sch.Common.scheme_name; Table.fmt_mbps tput;
             Table.fmt_ms rtt ])
  in
  [ Table.make ~title
      ~header:[ "load"; "scheme"; "tput p50(Mbps)"; "rtt p50(ms)" ]
      ~notes:
        [ "shape: at both loads nimbus ~cubic tput at lower rtt; delay \
           advantage shrinks at 90% load; the larger pulse switches more \
           reliably" ]
      (cases 0.5 @ cases 0.9) ]
