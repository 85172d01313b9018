(* Fault matrix: the robustness scenarios of §8 run under the invariant
   monitor.  Three multi-flow Nimbus flows share the link while a fault plan
   injects burst loss, a link flap (µ → 0 and back), and a pulser kill; the
   run passes when every invariant (packet conservation, non-negative queue,
   finite signals, mode-switch hysteresis) holds throughout and, after the
   kill, a surviving watcher takes over the pulser role within one FFT
   window. *)

module Engine = Nimbus_sim.Engine
module Rng = Nimbus_sim.Rng
module Flow = Nimbus_cc.Flow
module Nimbus = Nimbus_core.Nimbus
module Fault = Nimbus_faults.Fault
module Invariant = Nimbus_metrics.Invariant
module Monitor = Nimbus_metrics.Monitor
module Time = Units.Time

let id = "faults"

let title = "Fault matrix: invariant audit under injected faults"

type case = {
  fname : string;
  spec : float -> string; (* horizon -> fault spec; "" = no faults *)
  kill_pulser : bool;
}

let cases =
  [ { fname = "none"; spec = (fun _ -> ""); kill_pulser = false };
    { fname = "burst";
      spec = (fun h -> Printf.sprintf "burst@%g:0.05/0.4/0.3" (0.35 *. h));
      kill_pulser = false };
    { fname = "flap";
      spec = (fun h -> Printf.sprintf "flap@%g:2" (0.6 *. h));
      kill_pulser = false };
    { fname = "burst+flap+kill";
      spec =
        (fun h ->
          Printf.sprintf "burst@%g:0.05/0.4/0.2;flap@%g:2" (0.35 *. h)
            (0.7 *. h));
      kill_pulser = true } ]

type one = {
  o_tput : float; (* summed mean throughput, bps *)
  o_q95 : float; (* p95 queue delay, seconds *)
  o_failover : float; (* seconds from pulser kill to a live pulser; nan: n/a *)
  o_viol : int;
  o_report : string;
  o_trace : string; (* JSONL, "" when tracing is off *)
}

let run_one (p : Common.profile) ~trace_mask case ~seed =
  let l = Common.link ~mbps:96. ~rtt_ms:50. ~buffer_bdp:2.0 () in
  let h = Common.scaled p 60. in
  (* each case owns its collector and buffer, so cases stay shareable across
     pool domains; the matrix concatenates buffers in input order *)
  let tbuf = Buffer.create (if trace_mask = 0 then 16 else 65536) in
  let trace =
    if trace_mask = 0 then Nimbus_trace.Trace.disabled
    else begin
      let tr = Nimbus_trace.Trace.create ~mask:trace_mask () in
      Nimbus_trace.Trace.attach tr (`Buffer tbuf);
      tr
    end
  in
  let net = Common.setup ~trace ~seed l in
  let { Common.engine; topo; bottleneck = bn; rng; _ } = net in
  let n = 3 in
  let runnings =
    List.init n (fun i ->
        let sch =
          Common.nimbus
            ~name:(Printf.sprintf "nimbus%d" i)
            ~delay:`Copa_default ~multi_flow:true
            ~seed:(seed + (i * 7919))
            ()
        in
        sch.Common.start_flow net
          ~start:(Time.secs (float_of_int i *. 1.5))
          ())
  in
  let flows =
    Array.of_list (List.map (fun r -> r.Common.flow) runnings)
  in
  let spec = case.spec h in
  if not (String.equal spec "") then begin
    match Fault.parse spec with
    | Ok plan ->
      Fault.attach ~engine ~bottleneck:bn ~flows ~rng:(Rng.split rng) plan
    | Error msg -> invalid_arg ("exp_faults: bad fault spec: " ^ msg)
  end;
  let monitor =
    Common.audit topo
      ~nimbus:
        (List.mapi
           (fun i r ->
             match r.Common.nimbus with
             | Some nim -> (Printf.sprintf "nimbus%d" i, nim)
             | None -> assert false)
           runnings)
  in
  let kill_at = 0.5 *. h in
  let failover = ref nan in
  if case.kill_pulser then begin
    Engine.schedule_at engine (Time.secs kill_at) (fun () ->
        let victim =
          match
            List.find_opt
              (fun r ->
                (not (Flow.stopped r.Common.flow))
                && match r.Common.nimbus with
                   | Some nim -> Nimbus.role nim = Nimbus.Pulser
                   | None -> false)
              runnings
          with
          | Some r -> r.Common.flow
          | None -> flows.(0)
        in
        Flow.apply victim Flow.Control.Stop);
    (* the probe must start strictly after the kill event: two events at the
       same timestamp run in unspecified order, and sampling first would
       count the victim itself as the recovered pulser *)
    Engine.every engine ~dt:(Time.ms 50.) ~start:(Time.secs (kill_at +. 0.05))
      ~until:(Time.secs h) (fun () ->
        if Float.is_nan !failover then begin
          let live_pulser =
            List.exists
              (fun r ->
                (not (Flow.stopped r.Common.flow))
                && match r.Common.nimbus with
                   | Some nim -> Nimbus.role nim = Nimbus.Pulser
                   | None -> false)
              runnings
          in
          if live_pulser then
            failover := Time.to_secs (Engine.now engine) -. kill_at
        end)
  end;
  let tputs =
    List.map
      (fun r ->
        Monitor.flow_throughput engine r.Common.flow ~interval:(Time.secs 1.0)
          ~until:(Time.secs h) ())
      runnings
  in
  let qdelay =
    Monitor.queue_delay engine bn ~interval:(Time.ms 100.)
      ~until:(Time.secs h) ()
  in
  Engine.run_until engine (Time.secs h);
  Nimbus_trace.Trace.close trace;
  let tput =
    List.fold_left
      (fun acc s ->
        let m = Common.mean s ~lo:10. ~hi:h in
        if Float.is_nan m then acc else acc +. m)
      0. tputs
  in
  { o_tput = tput;
    o_q95 = Common.pct qdelay ~lo:10. ~hi:h 95.;
    o_failover = !failover;
    o_viol = Invariant.count monitor;
    o_report = Invariant.report monitor;
    o_trace = Buffer.contents tbuf }

type outcome = {
  tables : Table.t list;
  violations : int;
  report : string;
  traces : string;
}

let run_matrix ?(trace_mask = 0) (p : Common.profile) =
  let results =
    Common.map_cases p cases ~f:(fun case ->
        Common.run_seeds p ~base:7000 (fun ~seed ->
            ( seed,
              Common.run_case ~seed
                ~check:(fun o ->
                  if Float.is_finite o.o_tput then None
                  else Some "non-finite throughput")
                (run_one p ~trace_mask
                   (case
                   [@shared_ok
                     "immutable fault-case spec built before the fan-out; \
                      its spec closure installs faults into the fresh \
                      per-run engine it is handed"])) ))
        |> List.map (fun (seed, r) -> (case, seed, r)))
  in
  let results = List.concat results in
  let rows =
    List.map
      (fun (case, seed, r) ->
        match r with
        | Ok o ->
          [ case.fname; string_of_int seed; Table.fmt_mbps o.o_tput;
            Table.fmt_ms o.o_q95;
            (if Float.is_nan o.o_failover then "-"
             else Printf.sprintf "%.2f s" o.o_failover);
            string_of_int o.o_viol;
            (if o.o_viol = 0 then "ok" else "VIOLATIONS") ]
        | Error c ->
          [ case.fname; string_of_int seed; "-"; "-"; "-"; "-";
            Common.crash_cell c ])
      results
  in
  let violations =
    List.fold_left
      (fun acc (_, _, r) ->
        match r with Ok o -> acc + o.o_viol | Error _ -> acc)
      0 results
  in
  let buf = Buffer.create 256 in
  List.iter
    (fun (case, seed, r) ->
      match r with
      | Ok o when o.o_viol > 0 ->
        Buffer.add_string buf
          (Printf.sprintf "%s seed=%d:\n%s" case.fname seed o.o_report)
      | Ok _ -> ()
      | Error c ->
        Buffer.add_string buf
          (Printf.sprintf "%s seed=%d: crashed: %s\n" case.fname seed
             (Printexc.to_string c.Common.crash_exn)))
    results;
  let report =
    if Buffer.length buf = 0 then "fault matrix: all invariants held\n"
    else Buffer.contents buf
  in
  (* per-case buffers concatenated in input order: byte-identical whatever
     the pool size *)
  let traces =
    String.concat ""
      (List.map
         (fun (_, _, r) ->
           match r with Ok o -> o.o_trace | Error _ -> "")
         results)
  in
  { tables =
      [ Table.make ~title
          ~header:
            [ "faults"; "seed"; "tput"; "p95 qdelay"; "failover";
              "violations"; "" ]
          ~notes:
            [ "failover: pulser killed mid-run; time for a surviving \
               watcher to win the boosted election (one 5 s FFT window on \
               a clean kill -- concurrent burst loss can stretch it)" ]
          rows ];
    violations;
    report;
    traces }

let run p = (run_matrix p).tables
