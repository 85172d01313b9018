(* Fig. 9 / Fig. 10 / Appendix B (Fig. 21): trace-driven evaluation with
   heavy-tailed WAN cross traffic at 50% load on a 96 Mbit/s, 50 ms, 100 ms
   buffer link (our synthetic CAIDA substitute; see DESIGN.md).

   Fig. 9:  throughput and RTT distributions per scheme.
   Fig. 10: low-percentile throughput — Copa's drops against elastic flows.
   Fig. 21: p95 FCT of the cross-flows by flow size, normalized to Nimbus. *)

module Engine = Nimbus_sim.Engine
module Rng = Nimbus_sim.Rng
module Wan = Nimbus_traffic.Wan
module Fct = Nimbus_metrics.Fct
module Stats = Nimbus_dsp.Stats
module Time = Units.Time
module Rate = Units.Rate

let id = "wan"

let title = "Fig 9/10/21: WAN cross-traffic workload"

type result = {
  name : string;
  tput : Nimbus_metrics.Series.t;
  rtt : Nimbus_metrics.Series.t;
  fcts : (int * Units.Time.t) array;
}

let run_scheme (p : Common.profile) ~seed ~load_frac (sch : Common.scheme) =
  let l = Common.link ~mbps:96. ~rtt_ms:50. ~buffer_bdp:2.0 () in
  let horizon = Common.scaled p 120. in
  let net = Common.setup ~seed l in
  let { Common.engine; topo; route; rng; _ } = net in
  let wan =
    Wan.create topo ~route ~rng:(Rng.split rng)
      ~load:(Rate.scale load_frac l.Common.mu) ()
  in
  let running = sch.Common.start_flow net () in
  let stats = Common.instrument net running ~until:(Time.secs horizon) in
  Engine.run_until engine (Time.secs horizon);
  { name = sch.Common.scheme_name;
    tput = stats.Common.tput_series;
    rtt = stats.Common.rtt_series;
    fcts = Wan.fcts wan }

let run (p : Common.profile) =
  let schemes =
    Common.nimbus () :: Common.cubic :: Common.bbr :: Common.vegas
    :: Common.copa :: Common.vivace :: []
  in
  let results = List.map (run_scheme p ~seed:9 ~load_frac:0.5) schemes in
  let horizon = Common.scaled p 120. in
  let lo = 10. and hi = horizon in
  let fig9 =
    Table.make
      ~title:"Fig 9: throughput and RTT distributions under WAN cross traffic"
      ~header:
        [ "scheme"; "tput p25"; "p50"; "p75"; "rtt p50(ms)"; "rtt p95(ms)" ]
      ~notes:
        [ "shape: nimbus p50 tput ~cubic/bbr; nimbus p50 rtt well below \
           cubic/bbr, near vegas; vegas/copa lose throughput" ]
      (List.map
         (fun r ->
           [ r.name;
             Table.fmt_mbps (Common.pct r.tput ~lo ~hi 25.);
             Table.fmt_mbps (Common.pct r.tput ~lo ~hi 50.);
             Table.fmt_mbps (Common.pct r.tput ~lo ~hi 75.);
             Table.fmt_ms (Common.pct r.rtt ~lo ~hi 50.);
             Table.fmt_ms (Common.pct r.rtt ~lo ~hi 95.) ])
         results)
  in
  let fig10 =
    let interesting =
      List.filter (fun r -> r.name = "nimbus" || r.name = "copa") results
    in
    Table.make ~title:"Fig 10: low-percentile throughput (starvation periods)"
      ~header:[ "scheme"; "tput p5"; "p10"; "p20" ]
      ~notes:
        [ "shape: copa's low percentiles collapse (incorrect mode against \
           elastic flows); nimbus holds its share" ]
      (List.map
         (fun r ->
           [ r.name;
             Table.fmt_mbps (Common.pct r.tput ~lo ~hi 5.);
             Table.fmt_mbps (Common.pct r.tput ~lo ~hi 10.);
             Table.fmt_mbps (Common.pct r.tput ~lo ~hi 20.) ])
         interesting)
  in
  let nimbus_p95 =
    match results with
    | r :: _ -> Fct.p95 (Fct.bucketize r.fcts)
    | [] -> [||]
  in
  let fig21 =
    Table.make
      ~title:
        "Fig 21 (App B): p95 cross-flow FCT by size, normalized to Nimbus"
      ~header:
        ("scheme"
        :: Array.to_list (Array.map Fct.bucket_label Fct.default_buckets))
      ~notes:
        [ "shape: bbr/vivace inflate cross-flow FCTs at all sizes; nimbus \
           comparable to cubic, slightly better for short flows; vegas \
           gentlest" ]
      (List.map
         (fun r ->
           let p95 = Fct.p95 (Fct.bucketize r.fcts) in
           r.name
           :: Array.to_list
                (Array.mapi
                   (fun i v ->
                     if
                       i < Array.length nimbus_p95
                       && (not (Float.is_nan nimbus_p95.(i)))
                       && nimbus_p95.(i) > 0.
                     then Table.fmt_float (v /. nimbus_p95.(i))
                     else "-")
                   p95))
         results)
  in
  ignore Stats.mean;
  [ fig9; fig10; fig21 ]
