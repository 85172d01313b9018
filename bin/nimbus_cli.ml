(* nimbus_cli: run reproduction experiments and ad-hoc simulations from the
   command line.

   Subcommands:
     run        run one experiment (or all) and print its tables
     csv        run one experiment and dump its tables as CSV
     sweep      fleet-scale Monte-Carlo path sweep with checkpointed
                resume, watchdog/retry, and worst-k auto-triage; exits 3
                when interrupted by --stop-after, 2 on an incompatible
                checkpoint or an unwritable output path
     simulate   one Nimbus flow vs configurable cross traffic, with a
                per-second timeline of throughput / queue delay / mode
     faults     the fault matrix under the invariant monitor; exits 1 on
                any violation (the CI smoke gate)
     parking    the parking-lot chain (Nimbus populations on K bottlenecks)
                under the invariant monitor; exits 1 on any violation (the
                topology CI smoke gate)
     trace      summarize a trace file recorded with --trace

   Flags shared across subcommands (--full, --jobs, --seeds, --trace,
   --trace-filter) live in Flags, so they are spelled and documented once. *)

module Registry = Nimbus_experiments.Registry
module Table = Nimbus_experiments.Table
module Common = Nimbus_experiments.Common
module Engine = Nimbus_sim.Engine
module Rng = Nimbus_sim.Rng
module Flow = Nimbus_cc.Flow
module Nimbus = Nimbus_core.Nimbus
module Source = Nimbus_traffic.Source
module Fault = Nimbus_faults.Fault
module Invariant = Nimbus_metrics.Invariant
module Exp_faults = Nimbus_experiments.Exp_faults
module Exp_parking_lot = Nimbus_experiments.Exp_parking_lot
module Time = Units.Time
module Rate = Units.Rate

let profile = Flags.profile

let with_pool = Flags.with_pool

let run_cmd id full jobs =
  let todo =
    match id with
    | None -> Registry.all
    | Some id -> (
      match Registry.find id with
      | Some e -> [ e ]
      | None ->
        Printf.eprintf "unknown experiment %S (try `nimbus_cli list`)\n" id;
        exit 2)
  in
  with_pool jobs (fun pool ->
      let p = { (profile full) with Common.pool = Some pool } in
      List.iter
        (fun (e : Registry.experiment) ->
          Printf.printf "\n### [%s] %s\n%!" e.Registry.id e.Registry.title;
          List.iter Table.print (e.Registry.run p))
        todo);
  0

let csv_cmd id full jobs =
  match Registry.find id with
  | None ->
    Printf.eprintf "unknown experiment %S\n" id;
    2
  | Some e ->
    with_pool jobs (fun pool ->
        List.iter
          (fun t -> print_string (Table.to_csv t))
          (e.Registry.run { (profile full) with Common.pool = Some pool }));
    0

let list_cmd () =
  List.iter
    (fun (e : Registry.experiment) ->
      Printf.printf "%-10s %s\n" e.Registry.id e.Registry.title)
    Registry.all;
  0

(* [Some msg] names the first flag outside its domain; checked before
   anything is built, so a bad value never reaches a constructor (an
   infinite rate or a NaN duration would otherwise hang or run empty) *)
let simulate_flag_error ~mbps ~rtt_ms ~duration ~cross_mbps =
  let finite = Float.is_finite and max = Common.max_link_mbps in
  (* the upper bound keeps a run's packet rate, and so its cost, bounded *)
  if not (mbps > 0. && mbps <= max) then
    Some (Printf.sprintf "--rate must be in (0, %g] (got %g)" max mbps)
  else if not (finite rtt_ms && rtt_ms > 0.) then
    Some (Printf.sprintf "--rtt must be finite and > 0 (got %g)" rtt_ms)
  else if not (finite duration && duration > 0.) then
    Some (Printf.sprintf "--duration must be finite and > 0 (got %g)" duration)
  else if not (cross_mbps >= 0. && cross_mbps <= max) then
    Some
      (Printf.sprintf "--cross-rate must be in [0, %g] (got %g)" max
         cross_mbps)
  else None

let simulate_cmd mbps rtt_ms duration cross_kind cross_mbps seed faults
    trace_out trace_filter =
  (match simulate_flag_error ~mbps ~rtt_ms ~duration ~cross_mbps with
   | Some msg ->
     Printf.eprintf "simulate: %s\n" msg;
     exit 2
   | None -> ());
  Flags.with_trace ?out:trace_out ~filter:trace_filter @@ fun trace flush ->
  let l = Common.link ~mbps ~rtt_ms () in
  let net = Common.setup ~trace ~seed l in
  let { Common.engine; topo; route; bottleneck = bn; rng; _ } = net in
  (* flush the ring off the hot path, once a simulated second *)
  Engine.every engine ~dt:(Time.secs 1.0) (fun () -> flush ());
  (match cross_kind with
   | "none" -> ()
   | "cubic" ->
     ignore
       (Flow.create_via topo ~route ~cc:(Nimbus_cc.Cubic.make ())
          ~prop_rtt:l.Common.prop_rtt ())
   | "poisson" ->
     ignore
       (Source.poisson_via topo ~route ~rng:(Rng.split rng)
          ~rate:(Rate.mbps cross_mbps) ())
   | "cbr" ->
     ignore (Source.cbr_via topo ~route ~rate:(Rate.mbps cross_mbps) ())
   | other ->
     Printf.eprintf "unknown cross traffic %S (none|cubic|poisson|cbr)\n" other;
     exit 2);
  let running = (Common.nimbus ()).Common.start_flow net () in
  let nim = Option.get running.Common.nimbus in
  let monitor = Common.audit topo ~nimbus:[ ("nimbus", nim) ] in
  (match faults with
   | None -> ()
   | Some spec -> (
     match Fault.parse spec with
     | Ok plan ->
       Fault.attach ~engine ~bottleneck:bn
         ~flows:[| running.Common.flow |]
         ~rng:(Rng.split rng) plan
     | Error msg ->
       Printf.eprintf "bad --faults spec: %s\n" msg;
       exit 2));
  let last = ref 0 in
  Printf.printf "%6s %10s %10s %8s %12s %8s\n" "t(s)" "tput(Mbps)"
    "qdelay(ms)" "eta" "mode" "z(Mbps)";
  Engine.every engine ~dt:(Time.secs 1.0) (fun () ->
      let b = Flow.received_bytes running.Common.flow in
      Printf.printf "%6.0f %10.1f %10.1f %8.2f %12s %8.1f\n%!"
        (Time.to_secs (Engine.now engine))
        (float_of_int ((b - !last) * 8) /. 1e6)
        (Time.to_ms (Nimbus_sim.Bottleneck.queue_delay bn))
        (Nimbus.last_eta nim)
        (Nimbus.mode_to_string (Nimbus.mode nim))
        (Rate.to_mbps (Nimbus.last_z nim));
      last := b);
  Engine.run_until engine (Time.secs duration);
  print_string (Invariant.report monitor);
  if Invariant.ok monitor then 0 else 1

let faults_cmd full jobs seeds report_file trace_out trace_filter =
  let p = Flags.seeds_profile (profile full) seeds in
  let trace_mask =
    let mask = Flags.trace_mask trace_filter in
    match trace_out with None -> 0 | Some _ -> mask
  in
  (* both files are written after the run, so open them before it *)
  let report_oc = Option.map (Flags.open_output ~flag:"--report") report_file
  and trace_oc = Option.map (Flags.open_output ~flag:"--trace") trace_out in
  let outcome =
    with_pool jobs (fun pool ->
        Exp_faults.run_matrix ~trace_mask { p with Common.pool = Some pool })
  in
  List.iter Table.print outcome.Exp_faults.tables;
  print_string outcome.Exp_faults.report;
  let write text oc =
    output_string oc text;
    close_out oc
  in
  Option.iter (write outcome.Exp_faults.report) report_oc;
  Option.iter (write outcome.Exp_faults.traces) trace_oc;
  if outcome.Exp_faults.violations > 0 then 1 else 0

(* reduced-scale CI entry point for the topology fabric: run the parking-lot
   chain under the invariant monitor, exit 1 on any violation, and record a
   trace artifact when asked *)
let parking_cmd links flows mbps duration seed trace_out trace_filter =
  Flags.with_trace ?out:trace_out ~filter:trace_filter @@ fun trace _flush ->
  let p =
    try Exp_parking_lot.scaled_params ~mbps ~duration ~seed ~links ~flows ()
    with Invalid_argument msg ->
      Printf.eprintf "%s\n" msg;
      exit 2
  in
  let o = Exp_parking_lot.run_custom ~trace p in
  List.iter Table.print o.Exp_parking_lot.tables;
  print_string o.Exp_parking_lot.report;
  if o.Exp_parking_lot.violations > 0 then 1 else 0

module Sweep = Nimbus_experiments.Sweep

(* tables on stdout, progress on stderr: interrupted-then-resumed runs must
   diff byte-identical against uninterrupted ones (the CI smoke job does) *)
let sweep_cmd full jobs paths seed schemes shard_size budget retries
    checkpoint resume stop_after triage_k triage_dir triage_only =
  let scheme name =
    match Sweep.scheme_of_name name with
    | Some s -> s
    | None ->
      Printf.eprintf
        "unknown scheme %S (nimbus, nimbus-delay, cubic, reno, vegas, copa, \
         bbr, vivace, compound)\n"
        name;
      exit 2
  in
  let schemes = Option.map (List.map scheme) schemes in
  if schemes = Some [] then begin
    Printf.eprintf "--schemes must name at least one scheme\n";
    exit 2
  end;
  (* the config takes the pool's profile, so it is built inside the pool;
     a bad size leaves the pool as an [Error] and exits after it closes *)
  let run pool =
    match
      Sweep.config ~paths ~seed ?schemes
        ~profile:{ (profile full) with Common.pool = Some pool }
        ~shard_size ~budget ~retries ?checkpoint ~resume ?stop_after
        ~triage_k ?triage_dir ~triage_only
        ~log:(fun msg -> Printf.eprintf "[sweep] %s\n%!" msg)
        ()
    with
    | exception Invalid_argument msg -> Error msg
    | cfg -> Ok (Sweep.run cfg)
  in
  match with_pool jobs run with
  | exception
      Sweep.Output_error
        ( Sweep.Checkpoint_incompatible msg | Sweep.Checkpoint_incomplete msg
        | Sweep.Unwritable msg ) ->
    Printf.eprintf "%s\n" msg;
    2
  | Error msg ->
    Printf.eprintf "%s\n" msg;
    2
  | Ok outcome when outcome.Sweep.interrupted ->
    Printf.eprintf "[sweep] interrupted at %d/%d shard(s); resume with \
                    --resume\n%!"
      outcome.Sweep.completed_shards outcome.Sweep.total_shards;
    3
  | Ok outcome ->
    List.iter Table.print outcome.Sweep.tables;
    0

let trace_cmd file =
  match Nimbus_trace.Trace.summarize_file file with
  | Ok summary ->
    print_string summary;
    0
  | Error msg ->
    Printf.eprintf "%s\n" msg;
    2

open Cmdliner

let full = Flags.full

let jobs = Flags.jobs

let run_t =
  let id =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"ID")
  in
  Cmd.v (Cmd.info "run" ~doc:"Run experiment(s) and print tables.")
    Term.(const run_cmd $ id $ full $ jobs)

let csv_t =
  let id = Arg.(required & pos 0 (some string) None & info [] ~docv:"ID") in
  Cmd.v (Cmd.info "csv" ~doc:"Run one experiment, dump CSV.")
    Term.(const csv_cmd $ id $ full $ jobs)

let list_t =
  Cmd.v (Cmd.info "list" ~doc:"List experiments.") Term.(const list_cmd $ const ())

let simulate_t =
  let mbps =
    Arg.(
      value & opt float 48.
      & info [ "rate" ] ~docv:"MBPS"
          ~doc:
            "Link rate, in (0, 1000]: 1 Gbit/s is the fastest link any \
             experiment, example or test builds.")
  in
  let rtt =
    Arg.(
      value & opt float 50.
      & info [ "rtt" ] ~docv:"MS"
          ~doc:
            "Propagation RTT, > 0. The buffer is sized in multiples of the \
             bandwidth-delay product, so a zero RTT would build a link \
             with no buffer.")
  in
  let dur =
    Arg.(value & opt float 60. & info [ "duration" ] ~docv:"S" ~doc:"Duration.")
  in
  let kind =
    Arg.(value & opt string "cubic"
         & info [ "cross" ] ~docv:"KIND" ~doc:"none|cubic|poisson|cbr.")
  in
  let cmbps =
    Arg.(value & opt float 24. & info [ "cross-rate" ] ~docv:"MBPS"
         ~doc:"Cross rate for poisson/cbr, in [0, 1000].")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Seed.") in
  let faults =
    Arg.(
      value
      & opt (some string) None
      & info [ "faults" ] ~docv:"SPEC"
          ~doc:
            "Inject faults, e.g. \
             'burst@30:0.05/0.4/0.3;flap@50:2;delay@40:20'. Clauses: \
             burst@T:PENTER/PEXIT[/LGOOD]/LBAD, lossoff@T, step@T:MBPS, \
             flap@T:DUR, delay@T:MS, jitter@T1-T2:AMPMS/PERIODMS, acks@T:P, \
             acksoff@T, kill@T:IDX. Exits 1 if an invariant is violated.")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Timeline of one Nimbus flow vs cross traffic.")
    Term.(
      const simulate_cmd $ mbps $ rtt $ dur $ kind $ cmbps $ seed $ faults
      $ Flags.trace_out $ Flags.trace_filter)

let faults_t =
  let report =
    Arg.(
      value
      & opt (some string) None
      & info [ "report" ] ~docv:"FILE"
          ~doc:"Also write the violation report to $(docv) (CI artifact).")
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "Run the fault matrix under the invariant monitor; exit 1 on any \
          violation.")
    Term.(
      const faults_cmd $ full $ jobs $ Flags.seeds $ report $ Flags.trace_out
      $ Flags.trace_filter)

let sweep_t =
  let paths =
    Arg.(
      value & opt int 200
      & info [ "paths" ] ~docv:"N"
          ~doc:"Number of sampled path profiles (the fleet size).")
  in
  let seed =
    Arg.(
      value & opt int 1819
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Path-population seed. The default matches the 25-path figure, \
             so its paths are the sweep's first 25.")
  in
  let schemes =
    Arg.(
      value
      & opt (some (list string)) None
      & info [ "schemes" ] ~docv:"A,B,.."
          ~doc:
            "Comma-separated protocol matrix (default \
             nimbus,cubic,bbr,vegas); an empty list is an error. The first \
             scheme is the subject of the paired comparison and the outlier \
             score.")
  in
  let shard_size =
    Arg.(
      value & opt int 32
      & info [ "shard-size" ] ~docv:"N"
          ~doc:"Paths per shard — the checkpoint/restart granularity.")
  in
  let budget =
    Arg.(
      value & opt float 0.
      & info [ "budget" ] ~docv:"SECS"
          ~doc:
            "Wall-clock budget per case attempt, finite and >= 0; \
             over-budget cases are retried on rekeyed seeds, then recorded \
             as timeout cells. 0 disables (and keeps the sweep fully \
             deterministic).")
  in
  let retries =
    Arg.(
      value & opt int 2
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Retries per failed case, each on a rekeyed seed, before it \
             becomes a failure cell.")
  in
  let checkpoint =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "Append each completed shard to $(docv) (atomic \
             tmp-write+rename). Without --resume an existing file is \
             truncated.")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Restore completed shards from --checkpoint before running the \
             rest; the final tables are byte-identical to an uninterrupted \
             run. Exit 2 if the checkpoint was written with different sweep \
             parameters.")
  in
  let stop_after =
    Arg.(
      value
      & opt (some int) None
      & info [ "stop-after" ] ~docv:"SHARDS"
          ~doc:
            "Stop (exit 3) once $(docv) >= 0 shards are complete — \
             interrupt injection for tests/CI.")
  in
  let triage_k =
    Arg.(
      value & opt int 3
      & info [ "triage-k" ] ~docv:"K"
          ~doc:
            "Re-run the $(docv) >= 0 worst outlier paths with tracing and \
             the invariant monitor. 0 disables triage.")
  in
  let triage_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "triage-dir" ] ~docv:"DIR"
          ~doc:"Archive triage traces (JSONL, one file per case) in $(docv).")
  in
  let triage_only =
    Arg.(
      value & flag
      & info [ "triage-only" ]
          ~doc:
            "Skip the shard runs: restore every shard from --checkpoint \
             (implies --resume) and go straight to the worst-k triage \
             re-runs. The tables are byte-identical to the run that wrote \
             the checkpoint. Exit 2 if the checkpoint is incomplete.")
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Fleet-scale Monte-Carlo path sweep: the Fig 18/19 population at \
          10^4+ paths, sharded over the pool, with checkpointed resume, \
          per-case watchdog/retry, streaming P2 aggregation, and worst-k \
          auto-triage.")
    Term.(
      const sweep_cmd $ full $ jobs $ paths $ seed $ schemes $ shard_size
      $ budget $ retries $ checkpoint $ resume $ stop_after $ triage_k
      $ triage_dir $ triage_only)

let parking_t =
  let links =
    Arg.(
      value & opt int 3
      & info [ "links" ] ~docv:"K" ~doc:"Chained bottleneck links (>= 2).")
  in
  let flows =
    Arg.(
      value & opt int 60
      & info [ "flows" ] ~docv:"N"
          ~doc:
            "Total congestion-controlled flows (one Nimbus per link, the \
             rest cubic cross traffic over adjacent link pairs).")
  in
  let mbps =
    Arg.(
      value & opt float 48.
      & info [ "rate" ] ~docv:"MBPS"
          ~doc:
            "Per-link rate, in (0, 1000]: 1 Gbit/s is the fastest link any \
             experiment, example or test builds.")
  in
  let dur =
    Arg.(
      value & opt float 5.
      & info [ "duration" ] ~docv:"S" ~doc:"Simulated duration.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Seed.")
  in
  Cmd.v
    (Cmd.info "parking"
       ~doc:
         "Run the parking-lot chain (Nimbus populations on K bottlenecks \
          with shared cross traffic) under the invariant monitor; exit 1 on \
          any violation (the topology CI smoke gate).")
    Term.(
      const parking_cmd $ links $ flows $ mbps $ dur $ seed $ Flags.trace_out
      $ Flags.trace_filter)

let trace_t =
  let file =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Summarize a JSONL trace file recorded with --trace: \
          event counts per kind, time span, and notable events (mode \
          switches, elections, faults, violations).")
    Term.(const trace_cmd $ file)

let () =
  let doc = "Nimbus elasticity-detection reproduction CLI" in
  exit
    (Cmd.eval'
       (Cmd.group (Cmd.info "nimbus_cli" ~doc)
          [ run_t; csv_t; list_t; sweep_t; simulate_t; faults_t; parking_t;
            trace_t ]))
