(* Fig. 6: distribution of the elasticity metric η as the elastic fraction of
   the cross traffic varies.  As in the paper, the cross traffic is an
   unconstrained Cubic flow plus Poisson traffic at different average rates;
   the elastic byte fraction is whatever mix that produces, measured at the
   bottleneck.  Fully inelastic mixes sit near η = 1, fully elastic near
   η ≈ 10, and mixes with a meaningful elastic component mostly exceed the
   η = 2 threshold. *)

module Engine = Nimbus_sim.Engine
module Bottleneck = Nimbus_sim.Bottleneck
module Rng = Nimbus_sim.Rng
module Flow = Nimbus_cc.Flow
module Nimbus = Nimbus_core.Nimbus
module Z = Nimbus_core.Z_estimator
module Source = Nimbus_traffic.Source
module Stats = Nimbus_dsp.Stats
module Time = Units.Time
module Rate = Units.Rate

let id = "fig6"

let title = "Fig 6: eta distribution vs elastic fraction of cross traffic"

(* With an unconstrained Cubic sharing the residual bandwidth with Nimbus,
   a Poisson rate of µ·(1-f)/(1+f) yields an elastic byte fraction ≈ f. *)
let poisson_rate_for_fraction ~mu f = Rate.scale ((1. -. f) /. (1. +. f)) mu

let run_mix (p : Common.profile) ~target_frac ~seed =
  let l = Common.link ~mbps:96. ~rtt_ms:50. ~buffer_bdp:2.0 () in
  let horizon = Common.scaled p 120. in
  let net = Common.setup ~seed l in
  let { Common.engine; topo; route; bottleneck = bn; rng; _ } = net in
  let etas = ref [] in
  let nim =
    Nimbus.create
      { (Nimbus.Config.default ~mu:(Z.Mu.known l.Common.mu)) with
        on_detection =
          Some
            (fun d ->
              if not (Float.is_nan d.Nimbus.d_eta) then
                etas := d.Nimbus.d_eta :: !etas) }
  in
  ignore
    (Flow.create_via topo ~route
       ~cc:(Nimbus.cc nim ~now:(fun () -> Engine.now engine))
       ~prop_rtt:l.Common.prop_rtt ());
  let cubic_id =
    if target_frac > 0. then begin
      let f =
        Flow.create_via topo ~route ~cc:(Nimbus_cc.Cubic.make ())
          ~prop_rtt:l.Common.prop_rtt ()
      in
      Some (Flow.id f)
    end
    else None
  in
  let poisson_rate = poisson_rate_for_fraction ~mu:l.Common.mu target_frac in
  let poisson_id =
    if Rate.to_bps poisson_rate > 1e5 then
      Some
        (Source.flow_id
           (Source.poisson_via topo ~route ~rng:(Rng.split rng)
              ~rate:poisson_rate ()))
    else None
  in
  Engine.run_until engine (Time.secs horizon);
  let delivered = function
    | Some fid -> Bottleneck.delivered_bytes bn ~flow:fid
    | None -> 0
  in
  let elastic_bytes = delivered cubic_id in
  let total_bytes = elastic_bytes + delivered poisson_id in
  let realized =
    if total_bytes = 0 then nan
    else float_of_int elastic_bytes /. float_of_int total_bytes
  in
  (Array.of_list (List.rev !etas), realized)

let run (p : Common.profile) =
  let fracs = [ 0.0; 0.25; 0.5; 0.75; 1.0 ] in
  let rows =
    Common.map_cases
      ~f:(fun f ->
        let etas, realized =
          run_mix p ~target_frac:f ~seed:(60 + int_of_float (f *. 10.))
        in
        let q pctl =
          if Array.length etas = 0 then nan else Stats.percentile etas pctl
        in
        let above =
          if Array.length etas = 0 then nan
          else begin
            let k =
              Array.fold_left (fun a e -> if e >= 2. then a + 1 else a) 0 etas
            in
            float_of_int k /. float_of_int (Array.length etas)
          end
        in
        [ Table.fmt_pct f; Table.fmt_pct realized; Table.fmt_float (q 25.);
          Table.fmt_float (q 50.); Table.fmt_float (q 75.);
          Table.fmt_pct above ])
      fracs
  in
  [ Table.make ~title
      ~header:
        [ "target frac"; "realized"; "eta p25"; "eta p50"; "eta p75";
          "eta>=2" ]
      ~notes:
        [ "shape: median eta ~1 at 0% elastic rising to >>2 at 100%; mixes \
           with >=25% elastic classified elastic most of the time (paper: \
           ~75% at 25%)" ]
      rows ]
