(* Fig. 3: the strawman detector.  A Cubic flow's self-inflicted queueing
   delay (its share of the queue, proportional to its throughput share) looks
   identical whether the competing traffic is elastic or inelastic —
   instantaneous delay measurements cannot reveal elasticity. *)

module Engine = Nimbus_sim.Engine
module Schedule = Nimbus_traffic.Schedule
module Time = Units.Time
module Rate = Units.Rate

let id = "fig3"

let title = "Fig 3: self-inflicted delay does not reveal elasticity"

let run (p : Common.profile) =
  let l = Common.link ~mbps:48. ~rtt_ms:50. ~buffer_bdp:2.0 () in
  let t1 = Common.scaled p 30. in
  let te = t1 +. Common.scaled p 60. in
  let ti = te +. Common.scaled p 60. in
  let net = Common.setup ~seed:3 l in
  let { Common.engine; topo; route; rng; _ } = net in
  let running = Common.cubic.Common.start_flow net () in
  let _sched =
    Schedule.install topo ~route ~rng
      ~phases:
        [ Schedule.phase ~start:(Time.secs t1) ~stop:(Time.secs te)
            ~inelastic:Rate.zero ~elastic_flows:1;
          Schedule.phase ~start:(Time.secs te) ~stop:(Time.secs ti)
            ~inelastic:(Rate.bps 24e6) ~elastic_flows:0 ]
      ()
  in
  let stats = Common.instrument net running ~until:(Time.secs ti) in
  Engine.run_until engine (Time.secs ti);
  let row label lo hi =
    let tput = Common.mean stats.Common.tput_series ~lo ~hi in
    let total = Common.mean stats.Common.qdelay_series ~lo ~hi in
    let share = tput /. Rate.to_bps l.Common.mu in
    let self_inflicted = total *. share in
    [ label; Table.fmt_mbps tput; Table.fmt_ms total;
      Table.fmt_ms self_inflicted; Table.fmt_pct share ]
  in
  let rows =
    [ row "elastic (1 Cubic)" (t1 +. 5.) te;
      row "inelastic (24M)" (te +. 5.) ti ]
  in
  [ Table.make ~title
      ~header:
        [ "phase"; "tput(Mbps)"; "total qdelay(ms)"; "self-inflicted(ms)";
          "share" ]
      ~notes:
        [ "shape: the flow's share (and so its self-inflicted delay fraction) \
           is ~50% in both phases -- the signal is uninformative" ]
      rows ]
