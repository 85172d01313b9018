(* Fig. 17: three Nimbus flows plus scripted cross traffic on a 192 Mbit/s
   link — elastic (3 Cubic flows) for a minute, then a 96 Mbit/s CBR stream.
   The aggregate should track the fair share in both phases and the delays
   should fall once the elastic flows leave. *)

module Engine = Nimbus_sim.Engine
module Schedule = Nimbus_traffic.Schedule
module Time = Units.Time
module Rate = Units.Rate

let id = "fig17"

let title = "Fig 17: multiple Nimbus flows + elastic then inelastic cross traffic"

let run (p : Common.profile) =
  let l = Common.link ~mbps:192. ~rtt_ms:50. ~buffer_bdp:2.0 () in
  let t1 = Common.scaled p 30. in
  let te = t1 +. Common.scaled p 60. in
  let ti = te +. Common.scaled p 60. in
  let net = Common.setup ~seed:17 l in
  let { Common.engine; topo; route; bottleneck = bn; rng; _ } = net in
  let runnings =
    List.init 3 (fun i ->
        (Common.nimbus
           ~name:(Printf.sprintf "nimbus%d" i)
           ~multi_flow:true ~seed:(300 + (13 * i)) ())
          .Common.start_flow net ())
  in
  let _sched =
    Schedule.install topo ~route ~rng
      ~phases:
        [ Schedule.phase ~start:(Time.secs t1) ~stop:(Time.secs te)
            ~inelastic:Rate.zero ~elastic_flows:3;
          Schedule.phase ~start:(Time.secs te) ~stop:(Time.secs ti)
            ~inelastic:(Rate.bps 96e6) ~elastic_flows:0 ]
      ~inelastic:`Cbr ()
  in
  let tputs =
    List.map
      (fun r ->
        Nimbus_metrics.Monitor.flow_throughput engine r.Common.flow
          ~interval:(Time.secs 1.0) ~until:(Time.secs ti) ())
      runnings
  in
  let qdelay =
    Nimbus_metrics.Monitor.queue_delay engine bn ~interval:(Time.ms 100.)
      ~until:(Time.secs ti) ()
  in
  Engine.run_until engine (Time.secs ti);
  let aggregate lo hi =
    List.fold_left
      (fun acc s ->
        let v = Common.mean s ~lo ~hi in
        if Float.is_nan v then acc else acc +. v)
      0. tputs
  in
  let row label lo hi fair =
    [ label; Table.fmt_mbps (aggregate lo hi); Table.fmt_mbps fair;
      Table.fmt_ms (Common.mean qdelay ~lo ~hi) ]
  in
  [ Table.make ~title
      ~header:[ "phase"; "aggregate tput(Mbps)"; "fair"; "qdelay(ms)" ]
      ~notes:
        [ "shape: aggregate near fair share in both phases; low queueing \
           delay in the solo and inelastic phases" ]
      [ row "solo" 10. t1 192e6;
        row "elastic (3 Cubic)" (t1 +. 8.) te 96e6;
        row "inelastic (96M CBR)" (te +. 8.) ti 96e6 ] ]
