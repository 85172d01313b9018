(* Appendix E (Fig. 25) + the buffer/RTT/AQM sweep of §8.2: multi-factor
   robustness of elasticity detection.

   Factors: pulse amplitude (fraction of µ), Nimbus's fair share of the
   link, link rate, buffer depth, propagation RTT, and AQM.  Accuracy should
   rise with pulse size and link rate, fall slightly with Nimbus's share,
   and survive PIE and buffer variation except the documented shallow-buffer
   caveat. *)

module Engine = Nimbus_sim.Engine
module Rng = Nimbus_sim.Rng
module Flow = Nimbus_cc.Flow
module Source = Nimbus_traffic.Source
module Accuracy = Nimbus_metrics.Accuracy
module Time = Units.Time
module Rate = Units.Rate

let id = "appe"

let title = "Fig 25 (App E): multi-factor detection robustness"

type mix =
  | Elastic
  | Inelastic
  | Mixed

(* Nimbus's fair share f is arranged by giving the cross traffic (1-f) of
   the link: inelastic via Poisson, elastic via enough Reno flows, mixed
   half-and-half. *)
let case (p : Common.profile) ~link ~mix ~share ~pulse ~seed =
  let horizon = Common.scaled p 120. in
  let net = Common.setup ~seed link in
  let { Common.engine; topo; route; rng; _ } = net in
  let mu = link.Common.mu in
  let truth_elastic =
    match mix with
    | Elastic | Mixed -> true
    | Inelastic -> false
  in
  (match mix with
   | Inelastic ->
     ignore
       (Source.poisson_via topo ~route ~rng:(Rng.split rng)
          ~rate:(Rate.scale (1. -. share) mu) ())
   | Elastic ->
     let n = max 1 (int_of_float (Float.round ((1. /. share) -. 1.))) in
     for _ = 1 to n do
       ignore
         (Flow.create_via topo ~route ~cc:(Nimbus_cc.Reno.make ())
            ~prop_rtt:link.Common.prop_rtt ())
     done
   | Mixed ->
     ignore
       (Source.poisson_via topo ~route ~rng:(Rng.split rng)
          ~rate:(Rate.scale ((1. -. share) /. 2.) mu) ());
     ignore
       (Flow.create_via topo ~route ~cc:(Nimbus_cc.Reno.make ())
          ~prop_rtt:link.Common.prop_rtt ()));
  let running =
    (Common.nimbus ~pulse_frac:pulse ()).Common.start_flow net ()
  in
  let accuracy = Accuracy.create () in
  (match running.Common.in_competitive with
   | Some mode ->
     Engine.every engine ~dt:(Time.ms 100.) ~start:(Time.secs 10.)
       ~until:(Time.secs horizon) (fun () ->
         Accuracy.record accuracy ~predicted_elastic:(mode ()) ~truth_elastic)
   | None -> ());
  Engine.run_until engine (Time.secs horizon);
  Accuracy.accuracy accuracy

let run (p : Common.profile) =
  let fullp = p.Common.time_scale >= 1.0 in
  let pulses = if fullp then [ 0.0625; 0.125; 0.25; 0.5 ] else [ 0.125; 0.25 ] in
  let shares = if fullp then [ 0.125; 0.25; 0.5; 0.75 ] else [ 0.25; 0.5 ] in
  let rates = if fullp then [ 96.; 192.; 384. ] else [ 96.; 192. ] in
  let grid =
    List.concat_map
      (fun mbps ->
        List.concat_map
          (fun pulse -> List.map (fun share -> (mbps, pulse, share)) shares)
          pulses)
      rates
  in
  let sweep =
    Common.map_cases
      ~f:(fun (mbps, pulse, share) ->
        let link = Common.link ~mbps ~rtt_ms:50. ~buffer_bdp:2.0 () in
        let acc mix = case p ~link ~mix ~share ~pulse ~seed:25 in
        [ Printf.sprintf "%.0fM" mbps; Table.fmt_float pulse;
          Table.fmt_pct share;
          Table.fmt_pct (acc Elastic);
          Table.fmt_pct (acc Inelastic);
          Table.fmt_pct (acc Mixed) ])
      grid
  in
  let fig25 =
    Table.make ~title:"Fig 25: pulse size x Nimbus share x link rate"
      ~header:[ "link"; "pulse"; "share"; "elastic"; "inelastic"; "mix" ]
      ~notes:
        [ "shape: accuracy rises with pulse size and link rate, falls \
           as nimbus's share grows; elastic >= ~95% broadly" ]
      sweep
  in
  (* §8.2: buffer, RTT, AQM *)
  let env_cases =
    let mk label link = (label, link) in
    [ mk "buffer 0.25 BDP" (Common.link ~mbps:96. ~rtt_ms:50. ~buffer_bdp:0.25 ());
      mk "buffer 1 BDP" (Common.link ~mbps:96. ~rtt_ms:50. ~buffer_bdp:1. ());
      mk "buffer 4 BDP" (Common.link ~mbps:96. ~rtt_ms:50. ~buffer_bdp:4. ());
      mk "RTT 25 ms" (Common.link ~mbps:96. ~rtt_ms:25. ~buffer_bdp:2. ());
      mk "RTT 75 ms" (Common.link ~mbps:96. ~rtt_ms:75. ~buffer_bdp:2. ());
      mk "PIE (1 BDP target)"
        (Common.link ~mbps:96. ~rtt_ms:50. ~buffer_bdp:4. ~aqm:(`Pie (Time.ms 50.))
           ());
      mk "PIE (0.25 BDP target)"
        (Common.link ~mbps:96. ~rtt_ms:50. ~buffer_bdp:4.
           ~aqm:(`Pie (Time.ms 12.5)) ()) ]
  in
  let env =
    Common.map_cases
      ~f:(fun (label, link) ->
        let acc mix = case p ~link ~mix ~share:0.5 ~pulse:0.25 ~seed:26 in
        [ label;
          Table.fmt_pct (acc Elastic);
          Table.fmt_pct (acc Inelastic);
          Table.fmt_pct (acc Mixed) ])
      env_cases
  in
  let env_table =
    Table.make ~title:"§8.2: buffer depth, RTT, and AQM robustness"
      ~header:[ "environment"; "elastic"; "inelastic"; "mix" ]
      ~notes:
        [ "shape: pure traffic >= ~95% except the documented shallow-buffer \
           and small-target-PIE caveats (losses corrupt the estimator in \
           delay mode); mixes >= ~80%" ]
      env
  in
  [ fig25; env_table ]
