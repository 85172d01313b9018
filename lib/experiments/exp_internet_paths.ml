(* Fig. 18/19 (+ Appendix A, Fig. 20): Internet paths.  Substitution: 25
   synthetic path profiles sampled over realistic ranges of rate, RTT,
   buffering, random loss, policing, and background WAN traffic (the paper's
   claim is about the *distribution* of outcomes across path diversity; see
   DESIGN.md).  The population and the per-path runner live in Path_model,
   shared with the fleet-scale sweep (`nimbus_cli sweep`), which draws the
   same distribution at 10^4+ paths.

   Fig. 18/19: per-path and aggregate throughput/delay for Nimbus, Cubic,
   BBR, Vegas — Nimbus should match Cubic-or-better throughput nearly
   everywhere, at BBR-level-or-better delay, and beat Cubic outright on
   lossy/policed paths.

   Fig. 20: on one buffered path, repeated runs of Cubic vs the pure
   delay-control scheme — the delay-mode cluster sits at far lower delay at
   similar throughput, the paper's motivation appendix. *)

module Stats = Nimbus_dsp.Stats

let id = "paths"

let title = "Fig 18/19/20: synthetic Internet path profiles"

let run_path p path ~seed sch =
  let o = Path_model.run p path sch ~seed in
  (o.Path_model.o_tput, o.Path_model.o_rtt)

let run (p : Common.profile) =
  let paths = Path_model.sample ~count:25 ~seed:1819 in
  let schemes =
    [ Common.nimbus ~estimate_mu:true (); Common.cubic; Common.bbr;
      Common.vegas ]
  in
  let results =
    Common.map_cases p
      ~f:(fun path ->
        ( path,
          List.map
            (fun sch ->
              run_path p path ~seed:(500 + path.Path_model.p_id) sch)
            (schemes
            [@shared_ok
              "immutable scheme list built before the fan-out; each \
               start_flow closure builds flows inside the fresh per-run \
               engine it is handed"]) ))
      paths
  in
  let per_path =
    List.map
      (fun (path, outs) ->
        Printf.sprintf "%d" path.Path_model.p_id
        :: Path_model.describe path
        :: List.concat_map
             (fun (tput, rtt) -> [ Table.fmt_mbps tput; Table.fmt_ms rtt ])
             outs)
      results
  in
  let header =
    "path" :: "profile"
    :: List.concat_map
         (fun sch ->
           [ sch.Common.scheme_name ^ " tput"; sch.Common.scheme_name ^ " rtt" ])
         schemes
  in
  let fig18 =
    Table.make ~title:"Fig 18: per-path throughput (Mbps) and mean RTT (ms)"
      ~header
      ~notes:
        [ "shape: nimbus >= ~cubic tput on buffered paths, beats cubic on \
           lossy ones; rtt below cubic/bbr on most paths" ]
      per_path
  in
  (* aggregate: ratios vs cubic/bbr over paths *)
  let nth_outs i = List.map (fun (_, outs) -> List.nth outs i) results in
  let nimbus_res = nth_outs 0 and cubic_res = nth_outs 1 and bbr_res = nth_outs 2 in
  let ratio a b = List.map2 (fun (ta, _) (tb, _) -> ta /. tb) a b in
  let delay_diff a b =
    List.map2 (fun (_, da) (_, db) -> (da -. db) *. 1e3) a b
  in
  let arr = Array.of_list in
  let lower_delay_frac a b =
    let diffs = delay_diff a b in
    float_of_int (List.length (List.filter (fun d -> d < -5.) diffs))
    /. float_of_int (List.length diffs)
  in
  let fig19 =
    Table.make ~title:"Fig 19: aggregate over the 25 paths"
      ~header:[ "metric"; "value" ]
      ~notes:
        [ "paper: nimbus ~cubic tput, ~10% below bbr, 40-50 ms lower delay \
           than bbr; lower delay than cubic on ~60% of paths" ]
      [ [ "median nimbus/cubic tput ratio";
          Table.fmt_float (Stats.median (arr (ratio nimbus_res cubic_res))) ];
        [ "median nimbus/bbr tput ratio";
          Table.fmt_float (Stats.median (arr (ratio nimbus_res bbr_res))) ];
        [ "median nimbus-bbr delay (ms)";
          Table.fmt_float (Stats.median (arr (delay_diff nimbus_res bbr_res))) ];
        [ "median nimbus-cubic delay (ms)";
          Table.fmt_float (Stats.median (arr (delay_diff nimbus_res cubic_res))) ];
        [ "paths where nimbus delay < cubic - 5ms";
          Table.fmt_pct (lower_delay_frac nimbus_res cubic_res) ] ]
  in
  (* Appendix A: repeated Cubic vs pure delay-mode runs on one buffered path *)
  let base_path =
    { Path_model.p_id = 99; mbps = 48.; rtt_ms = 50.; buffer_bdp = 2.;
      loss = 0.; policed = false; wan_load = 0.35 }
  in
  let runs = max 4 (p.Common.seeds * 4) in
  let collect sch =
    Common.map_cases p
      ~f:(fun k ->
        run_path p base_path ~seed:(900 + k)
          (sch
          [@shared_ok
            "immutable scheme record; its start_flow closure builds flows \
             inside the fresh per-run engine it is handed"]))
      (List.init runs (fun k -> k))
  in
  let cubic_runs = collect Common.cubic in
  let delay_runs = collect Common.nimbus_delay_only in
  let summarize rs =
    let t = arr (List.map fst rs) and d = arr (List.map snd rs) in
    (Stats.mean t, Stats.mean d)
  in
  let ct, cd = summarize cubic_runs in
  let dt, dd = summarize delay_runs in
  let fig20 =
    Table.make
      ~title:"Fig 20 (App A): Cubic vs pure delay-control, repeated runs"
      ~header:[ "scheme"; "runs"; "mean tput(Mbps)"; "mean rtt(ms)" ]
      ~notes:
        [ "shape: delay-control cluster at similar tput but much lower \
           delay -- inelastic cross traffic is common, so the opportunity \
           is real" ]
      [ [ "cubic"; string_of_int runs; Table.fmt_mbps ct; Table.fmt_ms cd ];
        [ "nimbus-delay"; string_of_int runs; Table.fmt_mbps dt;
          Table.fmt_ms dd ] ]
  in
  [ fig18; fig19; fig20 ]
