(* Fig. 8: eight schemes on a 96 Mbit/s link, 50 ms RTT, 2 BDP buffer, under
   the paper's scripted cross traffic ("xM" = x Mbit/s Poisson, "yT" = y
   long-running Cubic flows):

     16M/1T  32M/2T  0M/4T  0M/3T  0M/1T  16M/0T  32M/0T  48M/0T  16M/0T

   Mode-switching schemes should track the fair share with low delay in the
   inelastic phases; Cubic pays full-buffer delay everywhere; Vegas starves
   against elastic phases; BBR overshoots. *)

module Engine = Nimbus_sim.Engine
module Schedule = Nimbus_traffic.Schedule
module Accuracy = Nimbus_metrics.Accuracy
module Time = Units.Time
module Rate = Units.Rate

let id = "fig8"

let title = "Fig 8: scheme comparison under scripted cross traffic (96M/50ms/2BDP)"

let script = [ (16., 1); (32., 2); (0., 4); (0., 3); (0., 1);
               (16., 0); (32., 0); (48., 0); (16., 0) ]

let phase_len = 20.

let run_scheme (sch : Common.scheme) =
  let l = Common.link ~mbps:96. ~rtt_ms:50. ~buffer_bdp:2.0 () in
  let net = Common.setup ~seed:8 l in
  let { Common.engine; topo; route; rng; _ } = net in
  let phases =
    List.mapi
      (fun i (m, t) ->
        Schedule.phase
          ~start:(Time.secs (float_of_int i *. phase_len))
          ~stop:(Time.secs (float_of_int (i + 1) *. phase_len))
          ~inelastic:(Rate.bps (m *. 1e6)) ~elastic_flows:t)
      script
  in
  let horizon = phase_len *. float_of_int (List.length script) in
  let sched = Schedule.install topo ~route ~rng ~phases () in
  let running = sch.Common.start_flow net () in
  let stats = Common.instrument net running ~until:(Time.secs horizon) in
  let accuracy =
    Common.measure_accuracy engine running ~start:(Time.secs 5.)
      ~until:(Time.secs horizon) (fun () ->
        Schedule.elastic_present sched ~now:(Engine.now engine))
  in
  Engine.run_until engine (Time.secs horizon);
  let err_acc = ref 0. and err_n = ref 0 in
  let phase_rows =
    List.mapi
      (fun i (m, t) ->
        let lo = (float_of_int i *. phase_len) +. 5. in
        let hi = float_of_int (i + 1) *. phase_len in
        let fair = (Rate.to_bps l.Common.mu -. (m *. 1e6)) /. float_of_int (t + 1) in
        let tput = Common.mean stats.Common.tput_series ~lo ~hi in
        if not (Float.is_nan tput) then begin
          err_acc := !err_acc +. Float.abs (tput -. fair) /. fair;
          incr err_n
        end;
        (Printf.sprintf "%.0fM/%dT" m t, fair, tput,
         Common.mean stats.Common.qdelay_series ~lo ~hi))
      script
  in
  let mean_err = if !err_n = 0 then nan else !err_acc /. float_of_int !err_n in
  let qdelay = Common.mean stats.Common.qdelay_series ~lo:5. ~hi:horizon in
  let qdelay_inelastic =
    (* phases with no elastic flows: where low delay is achievable *)
    let acc = ref 0. and n = ref 0 in
    List.iteri
      (fun i (_, t) ->
        if t = 0 then begin
          let lo = (float_of_int i *. phase_len) +. 5. in
          let hi = float_of_int (i + 1) *. phase_len in
          let v = Common.mean stats.Common.qdelay_series ~lo ~hi in
          if not (Float.is_nan v) then begin
            acc := !acc +. v;
            incr n
          end
        end)
      script;
    if !n = 0 then nan else !acc /. float_of_int !n
  in
  let acc_cell =
    if Accuracy.samples accuracy = 0 then "-"
    else Table.fmt_pct (Accuracy.accuracy accuracy)
  in
  ( [ sch.Common.scheme_name;
      Table.fmt_pct mean_err;
      Table.fmt_ms qdelay;
      Table.fmt_ms qdelay_inelastic;
      acc_cell ],
    phase_rows )

let run (_ : Common.profile) =
  let schemes =
    [ Common.nimbus ();
      Common.nimbus ~name:"nimbus(copa)" ~delay:`Copa_default ();
      Common.cubic; Common.bbr; Common.vegas; Common.compound; Common.copa;
      Common.vivace ]
  in
  let results = List.map (fun s -> (s, run_scheme s)) schemes in
  let summary =
    Table.make ~title
      ~header:
        [ "scheme"; "mean |tput-fair|/fair"; "qdelay(ms)";
          "qdelay inelastic phases(ms)"; "mode accuracy" ]
      ~notes:
        [ "shape: nimbus variants have low fair-share error AND low delay in \
           inelastic phases; cubic/compound high delay everywhere; vegas \
           large error (starved) in elastic phases; copa switches but \
           flaps; bbr unfair" ]
      (List.map (fun (_, (row, _)) -> row) results)
  in
  let nimbus_phases =
    match results with
    | (_, (_, rows)) :: _ ->
      [ Table.make ~title:"Fig 8 detail: Nimbus per-phase tracking"
          ~header:[ "phase"; "fair(Mbps)"; "tput(Mbps)"; "qdelay(ms)" ]
          ~notes:[ "shape: tput tracks fair share within ~25% per phase" ]
          (List.map
             (fun (label, fair, tput, qd) ->
               [ label; Table.fmt_mbps fair; Table.fmt_mbps tput;
                 Table.fmt_ms qd ])
             rows) ]
    | [] -> []
  in
  summary :: nimbus_phases
