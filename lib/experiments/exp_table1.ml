(* Table 1: classification of each cross-traffic class by the elasticity
   detector.  One Nimbus flow shares the link with a single representative
   of each class; the detector's majority verdict should match the table:
   ACK-clocked protocols read elastic, rate-based and application-limited
   traffic reads inelastic, and BBR flips with buffer depth. *)

module Engine = Nimbus_sim.Engine
module Flow = Nimbus_cc.Flow
module Source = Nimbus_traffic.Source
module Time = Units.Time
module Rate = Units.Rate

let id = "table1"

let title = "Table 1: per-protocol classification"

type case = {
  label : string;
  expected : string;
  buffer_bdp : float;
  install : Common.net -> unit;
}

let flow cc (net : Common.net) =
  ignore
    (Flow.create_via net.topo ~route:net.route ~cc
       ~prop_rtt:net.net_link.prop_rtt ())

let cases =
  [ { label = "Cubic"; expected = "Elastic"; buffer_bdp = 2.;
      install = (fun net -> flow (Nimbus_cc.Cubic.make ()) net) };
    { label = "Reno"; expected = "Elastic"; buffer_bdp = 2.;
      install = (fun net -> flow (Nimbus_cc.Reno.make ()) net) };
    { label = "Copa"; expected = "Elastic"; buffer_bdp = 2.;
      install = (fun net -> flow (Nimbus_cc.Copa.make ()) net) };
    { label = "Vegas"; expected = "Elastic"; buffer_bdp = 2.;
      install = (fun net -> flow (Nimbus_cc.Vegas.make ()) net) };
    { label = "BBR (deep buffer)"; expected = "Elastic"; buffer_bdp = 2.;
      install = (fun net -> flow (Nimbus_cc.Bbr.make ()) net) };
    { label = "BBR (shallow buffer)"; expected = "Inelastic"; buffer_bdp = 0.5;
      install = (fun net -> flow (Nimbus_cc.Bbr.make ()) net) };
    { label = "PCC-Vivace"; expected = "Inelastic"; buffer_bdp = 2.;
      install = (fun net -> flow (Nimbus_cc.Vivace.make ()) net) };
    { label = "Fixed window"; expected = "Elastic"; buffer_bdp = 2.;
      install =
        (fun net ->
          flow (Nimbus_cc.Simple_cc.fixed_window ~segments:200 ()) net) };
    { label = "App-limited"; expected = "Inelastic"; buffer_bdp = 2.;
      install =
        (fun net ->
          (* a windowed transport trickle-fed by its application *)
          let f =
            Flow.create_via net.topo ~route:net.route
              ~cc:(Nimbus_cc.Cubic.make ()) ~prop_rtt:net.net_link.prop_rtt
              ~source:Flow.App_limited ()
          in
          Engine.every net.engine ~dt:(Time.ms 10.) (fun () ->
              Flow.supply f 30_000)) };
    { label = "Const. stream"; expected = "Inelastic"; buffer_bdp = 2.;
      install =
        (fun net ->
          ignore
            (Source.cbr_via net.topo ~route:net.route ~rate:(Rate.bps 48e6)
               ())) } ]

let classify (p : Common.profile) case ~seed =
  let l = Common.link ~mbps:96. ~rtt_ms:50. ~buffer_bdp:case.buffer_bdp () in
  let horizon = Common.scaled p 120. in
  let net = Common.setup ~seed l in
  let engine = net.Common.engine in
  case.install net;
  let running = (Common.nimbus ()).Common.start_flow net () in
  let elastic_samples = ref 0 and samples = ref 0 in
  (match running.Common.in_competitive with
   | Some mode ->
     Engine.every engine ~dt:(Time.ms 100.) ~start:(Time.secs 10.)
       ~until:(Time.secs horizon) (fun () ->
         incr samples;
         if mode () then incr elastic_samples)
   | None -> ());
  Engine.run_until engine (Time.secs horizon);
  if !samples = 0 then ("?", nan)
  else begin
    let frac = float_of_int !elastic_samples /. float_of_int !samples in
    ((if frac >= 0.5 then "Elastic" else "Inelastic"), frac)
  end

let run (p : Common.profile) =
  let rows =
    Common.map_cases
      ~f:(fun case ->
        (* full profiles average the elastic-time fraction over the seed
           repetitions; the quick profile's single seed reproduces the
           historical fixed-seed run exactly *)
        let outcomes =
          Common.run_seeds p ~base:100 (fun ~seed ->
              Common.run_case ~label:case.label ~seed
                (classify p
                   (case
                   [@shared_ok
                     "immutable cross-traffic case spec built before the \
                      fan-out; its install closure populates the fresh \
                      per-run engine it is handed"])))
        in
        (* a crashed seed costs its own cell, not the whole table: verdicts
           average over the surviving seeds and the row is marked *)
        let survived = List.filter_map Result.to_option outcomes in
        let crashed =
          List.filter_map
            (function Ok _ -> None | Error c -> Some c)
            outcomes
        in
        let fracs =
          List.filter (fun f -> not (Float.is_nan f)) (List.map snd survived)
        in
        let frac =
          match fracs with
          | [] -> nan
          | _ ->
            List.fold_left ( +. ) 0. fracs /. float_of_int (List.length fracs)
        in
        let verdict =
          if Float.is_nan frac then "?"
          else if frac >= 0.5 then "Elastic"
          else "Inelastic"
        in
        let status =
          match crashed with
          | c :: _ when survived = [] -> Common.crash_cell c
          | c :: _ ->
            (if verdict = case.expected then "ok" else "MISMATCH")
            ^ " " ^ Common.crash_cell c
          | [] -> if verdict = case.expected then "ok" else "MISMATCH"
        in
        [ case.label; case.expected; verdict; Table.fmt_pct frac; status ])
      cases
  in
  [ Table.make ~title
      ~header:[ "cross traffic"; "paper"; "measured"; "elastic time"; "" ]
      ~notes:
        [ "BBR's verdict flips with buffer depth because only deep buffers \
           make it CWND-limited (ACK-clocked)" ]
      rows ]
