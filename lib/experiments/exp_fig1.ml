(* Fig. 1: a flow on a 48 Mbit/s link faces one long-running Cubic cross-flow
   for a minute, then 24 Mbit/s of inelastic Poisson traffic.  Cubic keeps
   delay high everywhere; the delay-controlling scheme starves against Cubic;
   Nimbus tracks the fair share in both phases and keeps delay low against
   inelastic traffic. *)

module Engine = Nimbus_sim.Engine
module Schedule = Nimbus_traffic.Schedule
module Time = Units.Time
module Rate = Units.Rate

let id = "fig1"

let title = "Fig 1: Cubic vs delay-control vs Nimbus under phase-switching cross traffic"

let run (p : Common.profile) =
  let l = Common.link ~mbps:48. ~rtt_ms:50. ~buffer_bdp:2.0 () in
  let t1 = Common.scaled p 30. in
  let te = t1 +. Common.scaled p 60. in
  let ti = te +. Common.scaled p 60. in
  let schemes =
    [ Common.cubic; Common.nimbus_delay_only; Common.nimbus () ]
  in
  let run_scheme (sch : Common.scheme) =
    let net = Common.setup ~seed:11 l in
  let { Common.engine; topo; route; rng; _ } = net in
    let running = sch.Common.start_flow net () in
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
    let row label lo hi fair =
      [ sch.Common.scheme_name; label;
        Table.fmt_mbps (Common.mean stats.Common.tput_series ~lo ~hi);
        Table.fmt_mbps fair;
        Table.fmt_ms (Common.mean stats.Common.qdelay_series ~lo ~hi);
        Table.fmt_ms (Common.pct stats.Common.qdelay_series ~lo ~hi 95.) ]
    in
    (* skip 5 s of transition at each phase boundary *)
    [ row "solo" 5. t1 48e6;
      row "elastic (1 Cubic)" (t1 +. 5.) te 24e6;
      row "inelastic (24M)" (te +. 5.) ti 24e6 ]
  in
  let rows = List.concat_map run_scheme schemes in
  [ Table.make ~title
      ~header:
        [ "scheme"; "phase"; "tput(Mbps)"; "fair"; "qdelay(ms)"; "q-p95(ms)" ]
      ~notes:
        [ "shape: cubic holds fair share but ~full-buffer delay in all phases";
          "shape: nimbus-delay starves (<25% fair) vs the Cubic cross-flow";
          "shape: nimbus ~fair everywhere with low delay in solo/inelastic \
           phases (paper Fig 1c)" ]
      rows ]
