(* Fig. 15 (+ the mixed-RTT paragraph of §8.2): detection accuracy as the
   cross traffic's RTT varies from 0.2x to 4x the flow's, for purely elastic,
   purely inelastic, and mixed cross traffic; plus heterogeneous-RTT elastic
   mixes.  Accuracy should stay ≥ ~98% for the pure cases and ≥ ~80-85% for
   mixes at every ratio. *)

module Engine = Nimbus_sim.Engine
module Rng = Nimbus_sim.Rng
module Flow = Nimbus_cc.Flow
module Source = Nimbus_traffic.Source
module Accuracy = Nimbus_metrics.Accuracy
module Time = Units.Time
module Rate = Units.Rate

let id = "fig15"

let title = "Fig 15: accuracy vs cross-traffic RTT"

type mix =
  | Elastic
  | Inelastic
  | Mixed

let case (p : Common.profile) ~mix ~ratio ~seed =
  let l = Common.link ~mbps:96. ~rtt_ms:50. ~buffer_bdp:2.0 () in
  let horizon = Common.scaled p 120. in
  let net = Common.setup ~seed l in
  let { Common.engine; topo; route; rng; _ } = net in
  let cross_rtt = Time.scale ratio l.Common.prop_rtt in
  let truth_elastic =
    match mix with
    | Elastic | Mixed -> true
    | Inelastic -> false
  in
  (match mix with
   | Elastic ->
     ignore
       (Flow.create_via topo ~route ~cc:(Nimbus_cc.Reno.make ())
          ~prop_rtt:cross_rtt ());
     ignore
       (Flow.create_via topo ~route ~cc:(Nimbus_cc.Reno.make ())
          ~prop_rtt:cross_rtt ())
   | Inelastic ->
     ignore
       (Source.poisson_via topo ~route ~rng:(Rng.split rng)
          ~rate:(Rate.scale 0.5 l.Common.mu) ())
   | Mixed ->
     ignore
       (Flow.create_via topo ~route ~cc:(Nimbus_cc.Reno.make ())
          ~prop_rtt:cross_rtt ());
     ignore
       (Source.poisson_via topo ~route ~rng:(Rng.split rng)
          ~rate:(Rate.scale 0.25 l.Common.mu) ()));
  let running = (Common.nimbus ()).Common.start_flow net () in
  let accuracy =
    Common.measure_accuracy engine running ~start:(Time.secs 10.)
      ~until:(Time.secs horizon) (fun () -> truth_elastic)
  in
  Engine.run_until engine (Time.secs horizon);
  Accuracy.accuracy accuracy

let heterogeneous (p : Common.profile) ~flows ~seed =
  let l = Common.link ~mbps:96. ~rtt_ms:50. ~buffer_bdp:2.0 () in
  let horizon = Common.scaled p 120. in
  let net = Common.setup ~seed l in
  let { Common.engine; topo; route; _ } = net in
  for n = 1 to flows do
    ignore
      (Flow.create_via topo ~route ~cc:(Nimbus_cc.Reno.make ())
         ~prop_rtt:(Time.secs (0.02 *. float_of_int n)) ())
  done;
  let running = (Common.nimbus ()).Common.start_flow net () in
  let accuracy =
    Common.measure_accuracy engine running ~start:(Time.secs 10.)
      ~until:(Time.secs horizon) (fun () -> true)
  in
  Engine.run_until engine (Time.secs horizon);
  Accuracy.accuracy accuracy

let run (p : Common.profile) =
  let ratios = [ 0.2; 0.5; 1.; 2.; 4. ] in
  let sweep =
    Common.map_cases p
      ~f:(fun (ratio, mix) -> case p ~mix ~ratio ~seed:15)
      (List.concat_map
         (fun ratio -> [ (ratio, Elastic); (ratio, Mixed); (ratio, Inelastic) ])
         ratios)
  in
  let sweep =
    List.mapi
      (fun i ratio ->
        [ Table.fmt_float ~digits:1 ratio;
          Table.fmt_pct (List.nth sweep (3 * i));
          Table.fmt_pct (List.nth sweep ((3 * i) + 1));
          Table.fmt_pct (List.nth sweep ((3 * i) + 2)) ])
      ratios
  in
  let hetero =
    Common.map_cases p
      ~f:(fun flows ->
        [ string_of_int flows;
          Table.fmt_pct (heterogeneous p ~flows ~seed:16) ])
      [ 1; 2; 3; 4; 5 ]
  in
  [ Table.make ~title:"Fig 15: accuracy vs cross-traffic RTT ratio"
      ~header:[ "rtt ratio"; "elastic"; "mix"; "inelastic" ]
      ~notes:
        [ "shape: pure elastic/inelastic >= ~95% everywhere; mixes >= ~80%" ]
      sweep;
    Table.make
      ~title:"§8.2: heterogeneous cross-flow RTTs (n flows, RTT = 20n ms)"
      ~header:[ "elastic flows"; "accuracy" ]
      ~notes:[ "shape: RTT heterogeneity does not break detection (>= ~90%)" ]
      hetero ]
