(* Fig. 14: classification accuracy, Nimbus vs Copa.
   Left: purely inelastic cross traffic (CBR and Poisson) occupying 30-90% of
   the link — Copa's empty-queue test fails above ~80% because the queue can
   no longer drain within 5 RTTs; Nimbus stays accurate.
   Right: one backlogged NewReno cross-flow with 1-4x the flow's RTT — the
   slow ramp lets Copa drain its queue on schedule and misclassify; Nimbus
   reads the reaction off the FFT regardless. *)

module Engine = Nimbus_sim.Engine
module Rng = Nimbus_sim.Rng
module Flow = Nimbus_cc.Flow
module Source = Nimbus_traffic.Source
module Accuracy = Nimbus_metrics.Accuracy
module Time = Units.Time
module Rate = Units.Rate

let id = "fig14"

let title = "Fig 14: classification accuracy vs Copa"

let inelastic_case (p : Common.profile) ~kind ~share ~seed (sch : Common.scheme) =
  let l = Common.link ~mbps:96. ~rtt_ms:50. ~buffer_bdp:2.0 () in
  let horizon = Common.scaled p 60. in
  let net = Common.setup ~seed l in
  let { Common.engine; topo; route; rng; _ } = net in
  let rate = Rate.scale share l.Common.mu in
  (match kind with
   | `Cbr -> ignore (Source.cbr_via topo ~route ~rate ())
   | `Poisson ->
     ignore (Source.poisson_via topo ~route ~rng:(Rng.split rng) ~rate ()));
  let running = sch.Common.start_flow net () in
  let accuracy =
    Common.measure_accuracy engine running ~start:(Time.secs 10.)
      ~until:(Time.secs horizon) (fun () -> false)
  in
  Engine.run_until engine (Time.secs horizon);
  Accuracy.accuracy accuracy

let rtt_ratio_case (p : Common.profile) ~ratio ~seed (sch : Common.scheme) =
  let l = Common.link ~mbps:96. ~rtt_ms:50. ~buffer_bdp:2.0 () in
  let horizon = Common.scaled p 60. in
  let net = Common.setup ~seed l in
  let { Common.engine; topo; route; _ } = net in
  ignore
    (Flow.create_via topo ~route ~cc:(Nimbus_cc.Reno.make ())
       ~prop_rtt:(Time.scale ratio l.Common.prop_rtt) ());
  let running = sch.Common.start_flow net () in
  let accuracy =
    Common.measure_accuracy engine running ~start:(Time.secs 10.)
      ~until:(Time.secs horizon) (fun () -> true)
  in
  Engine.run_until engine (Time.secs horizon);
  Accuracy.accuracy accuracy

let run (p : Common.profile) =
  let schemes = [ Common.nimbus (); Common.copa ] in
  let shares = [ 0.3; 0.5; 0.7; 0.8; 0.9 ] in
  let left =
    List.concat_map
      (fun kind ->
        List.map
          (fun share ->
            let cells =
              List.map
                (fun sch ->
                  Table.fmt_pct
                    (inelastic_case p ~kind ~share ~seed:14 sch))
                schemes
            in
            ((match kind with `Cbr -> "CBR" | `Poisson -> "Poisson")
             :: Table.fmt_pct share :: cells))
          shares)
      [ `Cbr; `Poisson ]
  in
  let ratios = [ 1.; 2.; 3.; 4. ] in
  let right =
    List.map
      (fun ratio ->
        let cells =
          List.map
            (fun sch -> Table.fmt_pct (rtt_ratio_case p ~ratio ~seed:15 sch))
            schemes
        in
        Table.fmt_float ~digits:1 ratio :: cells)
      ratios
  in
  [ Table.make
      ~title:"Fig 14 left: accuracy vs inelastic cross traffic share"
      ~header:[ "kind"; "share"; "nimbus"; "copa" ]
      ~notes:
        [ "shape: nimbus high accuracy throughout; copa collapses when the \
           inelastic share exceeds ~0.8" ]
      left;
    Table.make
      ~title:"Fig 14 right: accuracy vs elastic cross-flow RTT ratio"
      ~header:[ "rtt ratio"; "nimbus"; "copa" ]
      ~notes:
        [ "shape: copa's accuracy degrades as the cross RTT grows; nimbus \
           drops only slightly at 4x" ]
      right ]
