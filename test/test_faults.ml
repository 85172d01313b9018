(* Tests for the fault-injection subsystem: the Gilbert–Elliott burst-loss
   process, the fault-plan parser and attacher, the runtime invariant
   monitor, Nimbus pulser-failure recovery, and the crash-isolating
   experiment runner. *)

module Engine = Nimbus_sim.Engine
module Topology = Nimbus_topology.Topology
module Bottleneck = Nimbus_sim.Bottleneck
module Qdisc = Nimbus_sim.Qdisc
module Rng = Nimbus_sim.Rng
module Flow = Nimbus_cc.Flow
module Nimbus = Nimbus_core.Nimbus
module Z_estimator = Nimbus_core.Z_estimator
module Source = Nimbus_traffic.Source
module Ge = Nimbus_faults.Gilbert_elliott
module Fault = Nimbus_faults.Fault
module Invariant = Nimbus_metrics.Invariant
module Common = Nimbus_experiments.Common
module Pool = Nimbus_parallel.Pool
module Time = Units.Time
module Rate = Units.Rate

let raises name f =
  Alcotest.(check bool) name true
    (try
       f ();
       false
     with Invalid_argument _ -> true)

(* --- Gilbert–Elliott ------------------------------------------------------ *)

let test_ge_validation () =
  raises "p_enter > 1" (fun () ->
      ignore
        (Ge.create ~rng:(Rng.create 1) ~p_enter:1.5 ~p_exit:0.1 ~loss_good:0.
           ~loss_bad:0.5 ()));
  raises "nan loss" (fun () ->
      ignore
        (Ge.create ~rng:(Rng.create 1) ~p_enter:0.1 ~p_exit:0.1 ~loss_good:nan
           ~loss_bad:0.5 ()));
  raises "frozen chain" (fun () ->
      ignore
        (Ge.stationary_loss ~p_enter:0. ~p_exit:0. ~loss_good:0. ~loss_bad:1.))

(* with identical state losses the injector must reproduce, draw for draw,
   the Bernoulli stream a uniform random_loss would take off the same rng *)
let test_ge_degenerates_to_uniform () =
  let p = 0.2 in
  let rng = Rng.create 42 in
  let ge =
    Ge.create ~rng ~p_enter:0.1 ~p_exit:0.3 ~loss_good:p ~loss_bad:p ()
  in
  let uniform = Rng.create 42 in
  ignore (Rng.split uniform);
  (* create's state-chain split *)
  for i = 0 to 9_999 do
    let expected = Rng.bool uniform ~p in
    if Ge.drop ge <> expected then
      Alcotest.failf "draw %d diverged from uniform loss" i
  done;
  Alcotest.(check int) "offered counts draws" 10_000 (Ge.offered ge)

let prop_ge_stationary =
  QCheck.Test.make ~count:25
    ~name:"gilbert-elliott: long-run loss converges to stationary"
    QCheck.(
      quad (int_range 5 50) (int_range 5 50) (int_range 0 20) (int_range 50 100))
    (fun (enter_pct, exit_pct, good_pct, bad_pct) ->
      let p_enter = float_of_int enter_pct /. 100. in
      let p_exit = float_of_int exit_pct /. 100. in
      let loss_good = float_of_int good_pct /. 100. in
      let loss_bad = float_of_int bad_pct /. 100. in
      let ge =
        Ge.create
          ~rng:(Rng.create (enter_pct + (100 * exit_pct)))
          ~p_enter ~p_exit ~loss_good ~loss_bad ()
      in
      let n = 60_000 in
      for _ = 1 to n do
        ignore (Ge.drop ge)
      done;
      let expected = Ge.stationary_loss ~p_enter ~p_exit ~loss_good ~loss_bad in
      (* the chain decorrelates within 1/(p_enter+p_exit) <= 10 draws, so
         60k draws put ~4 sigma inside this tolerance *)
      Float.abs (Ge.observed_loss ge -. expected) < 0.03)

(* --- Fault plan parsing --------------------------------------------------- *)

let test_parse_roundtrip () =
  let spec = "burst@30:0.05/0.4/0.3;flap@50:2;kill@20:0" in
  match Fault.parse spec with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok plan ->
    Alcotest.(check int) "three events" 3 (List.length plan);
    let rendered = Fault.to_string plan in
    (match Fault.parse rendered with
     | Error e -> Alcotest.failf "reparse failed: %s" e
     | Ok plan2 ->
       Alcotest.(check string) "round trip" rendered (Fault.to_string plan2))

let test_parse_all_clauses () =
  let spec =
    "burst@1:0.1/0.4/0.8;lossoff@2;step@3:24;flap@4:1.5;delay@5:20;\
     jitter@6-8:10/100;acks@9:0.3;acksoff@10;kill@11:1"
  in
  match Fault.parse spec with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok plan -> Alcotest.(check int) "nine events" 9 (List.length plan)

(* Only jitter takes a span: a span on any other kind, or garbage after
   the '-', is an error. *)
let test_parse_rejects_garbage () =
  let bad =
    [ "bogus@1"; "burst@x:0.1/0.2"; "kill@1"; "step@1:"; "@3:2";
      "jitter@1-2-3:10/100"; "jitter@2-1:10/100"; "jitter@1-x:10/100";
      "jitter@1:10/100"; "burst@1-2:0.1/0.2/0.3"; "step@1-garbage:5";
      "flap@2-1-x:0.5"; "lossoff@3-zzz" ]
  in
  List.iter
    (fun spec ->
      match Fault.parse spec with
      | Ok _ -> Alcotest.failf "accepted garbage %S" spec
      | Error _ -> ())
    bad

(* a time in exponent notation is one instant, not a span *)
let test_parse_exponent_times () =
  match Fault.parse "step@1e-05:24;jitter@2.5e-3-1E1:10/100" with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok [ Fault.Rate_step { at; _ }; Fault.Delay_jitter { at = j0; until; _ } ]
    ->
    Alcotest.(check (float 0.)) "step at" 1e-5 (Time.to_secs at);
    Alcotest.(check (float 0.)) "jitter from" 2.5e-3 (Time.to_secs j0);
    Alcotest.(check (float 0.)) "jitter until" 10. (Time.to_secs until)
  | Ok _ -> Alcotest.fail "expected a step and a jitter"

(* Specs built from the grammar's own pieces, good and bad, so that a fair
   share parses: each clause is KIND@TIME[-TIME][:PARAMS]. *)
let spec_gen =
  let open QCheck.Gen in
  let kinds =
    [ "burst"; "lossoff"; "step"; "flap"; "delay"; "jitter"; "acks";
      "acksoff"; "kill"; "bogus"; "" ]
  in
  let times = [ "0"; "1"; "2.5"; "1e-05"; "3E2"; "-1"; "x"; "nan"; "" ] in
  let params =
    [ ""; ":"; ":0.1"; ":1"; ":24"; ":-5"; ":inf"; ":0.05/0.4/0.3";
      ":0.1/0.2/0.3/0.4"; ":10/100"; ":10/0"; ":1/2/3"; ":3x" ]
  in
  let clause =
    map
      (fun (k, (t0, (t1, p))) ->
        k ^ "@" ^ t0 ^ (match t1 with Some t -> "-" ^ t | None -> "") ^ p)
      (pair (oneofl kinds)
         (pair (oneofl times) (pair (opt (oneofl times)) (oneofl params))))
  in
  map (String.concat ";") (list_size (int_range 1 4) clause)

(* [parse] is total: on any string it returns [Ok] or [Error] and never
   raises, and a plan it accepts prints to a spec that parses again. *)
let parse_is_total spec =
  match Fault.parse spec with
  | Error _ -> true
  | Ok plan -> (
    match Fault.parse (Fault.to_string plan) with
    | Ok plan2 -> List.length plan2 = List.length plan
    | Error e -> QCheck.Test.fail_reportf "%S reprinted fails: %s" spec e)

let prop_parse_total_strings =
  QCheck.Test.make ~count:2000 ~name:"fault plan: parse is total on any string"
    QCheck.(string_gen_of_size Gen.(int_range 0 40) (Gen.oneofl
      [ '0'; '1'; '5'; '.'; '-'; 'e'; '@'; ':'; '/'; ';'; ','; ' '; 'k';
        'i'; 'l'; 's'; 't'; 'p'; 'x'; 'j' ]))
    parse_is_total

let prop_parse_total_specs =
  QCheck.Test.make ~count:2000
    ~name:"fault plan: accepted specs reprint to specs that parse"
    (QCheck.make ~print:(fun s -> s) spec_gen)
    parse_is_total

(* --- attach: link faults -------------------------------------------------- *)

let make_link ?(rate_bps = 48e6) () =
  let e = Engine.create Engine.Config.default in
  let topo, route =
    Topology.dumbbell e
      (Topology.Link.Config.default ~rate:(Rate.bps rate_bps)
         ~qdisc:
           (Qdisc.droptail
              ~capacity_bytes:(int_of_float (rate_bps *. 0.1 /. 8.))))
  in
  (e, Topology.link_bottleneck (List.hd (Topology.links topo)), topo, route)

let attach_spec ~engine ~bottleneck ?flows ~seed spec =
  match Fault.parse spec with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok plan ->
    Fault.attach ~engine ~bottleneck ?flows ~rng:(Rng.create seed) plan

let test_attach_rate_step_and_outage () =
  let e, bn, topo, route = make_link () in
  ignore (Source.cbr_via topo ~route ~rate:(Rate.bps 40e6) ());
  attach_spec ~engine:e ~bottleneck:bn ~seed:3 "step@1:24;flap@2:1";
  Engine.run_until e (Time.secs 1.5);
  Alcotest.(check (float 1.)) "stepped to 24 Mbit/s" 24e6
    (Rate.to_bps (Bottleneck.rate bn));
  Engine.run_until e (Time.secs 2.5);
  Alcotest.(check (float 1.)) "outage: rate 0" 0.
    (Rate.to_bps (Bottleneck.rate bn));
  let delivered_mid = Bottleneck.delivered_packets bn in
  Engine.run_until e (Time.secs 2.9);
  Alcotest.(check int) "nothing delivered during outage" delivered_mid
    (Bottleneck.delivered_packets bn);
  Engine.run_until e (Time.secs 4.);
  Alcotest.(check (float 1.)) "restored after outage" 24e6
    (Rate.to_bps (Bottleneck.rate bn));
  (* packet conservation across the whole faulted run *)
  Alcotest.(check int) "conservation"
    (Bottleneck.offered_packets bn)
    (Bottleneck.delivered_packets bn + Bottleneck.drops bn
    + Bottleneck.queued_packets bn)

let test_attach_burst_loss () =
  let e, bn, topo, route = make_link () in
  (* paced CBR below the link rate: every drop is the injector's *)
  ignore (Source.cbr_via topo ~route ~rate:(Rate.bps 40e6) ());
  attach_spec ~engine:e ~bottleneck:bn ~seed:5 "burst@1:1/0/0/0.4;lossoff@3";
  Engine.run_until e (Time.secs 1.) ;
  Alcotest.(check int) "clean before onset" 0 (Bottleneck.drops bn);
  Engine.run_until e (Time.secs 3.);
  let d3 = Bottleneck.drops bn in
  Alcotest.(check bool) "bursty loss observed" true (d3 > 0);
  Engine.run_until e (Time.secs 6.);
  Alcotest.(check int) "lossoff freezes drops" d3 (Bottleneck.drops bn)

let test_attach_ack_loss () =
  let throughput spec =
    let e, bn, topo, route = make_link () in
    let f =
      Flow.create_via topo ~route ~cc:(Nimbus_cc.Cubic.make ())
        ~prop_rtt:(Time.ms 50.) ()
    in
    if not (String.equal spec "") then
      attach_spec ~engine:e ~bottleneck:bn ~flows:[| f |] ~seed:7 spec;
    Engine.run_until e (Time.secs 10.);
    Flow.received_bytes f
  in
  let clean = throughput "" in
  let faulted = throughput "acks@0.5:1" in
  Alcotest.(check bool) "total ACK loss stalls the flow" true
    (float_of_int faulted < 0.3 *. float_of_int clean)

let test_attach_kill_and_validation () =
  let e, bn, topo, route = make_link () in
  let f =
    Flow.create_via topo ~route ~cc:(Nimbus_cc.Cubic.make ())
      ~prop_rtt:(Time.ms 50.) ()
  in
  attach_spec ~engine:e ~bottleneck:bn ~flows:[| f |] ~seed:9 "kill@1:0";
  Alcotest.(check bool) "running before" false (Flow.stopped f);
  Engine.run_until e (Time.secs 2.);
  Alcotest.(check bool) "stopped after kill" true (Flow.stopped f);
  raises "kill index out of range" (fun () ->
      attach_spec ~engine:e ~bottleneck:bn ~flows:[| f |] ~seed:9 "kill@3:5");
  raises "non-finite event time" (fun () ->
      Fault.attach ~engine:e ~bottleneck:bn ~rng:(Rng.create 1)
        [ Fault.Rate_step { at = Time.secs nan; rate = Rate.bps 1e6 } ])

(* --- invariant monitor ---------------------------------------------------- *)

let test_invariant_benign_run () =
  let e, bn, topo, route = make_link () in
  ignore
    (Flow.create_via topo ~route ~cc:(Nimbus_cc.Cubic.make ())
       ~prop_rtt:(Time.ms 50.) ());
  (* delay jitter stresses the reorder/timing paths while the monitor
     watches: a benign (if bumpy) run must produce zero violations *)
  attach_spec ~engine:e ~bottleneck:bn ~seed:11 "delay@1:10;jitter@2-4:5/100";
  let m = Nimbus_experiments.Common.audit topo in
  Engine.run_until e (Time.secs 5.);
  Alcotest.(check int) "no violations" 0 (Invariant.count m);
  Alcotest.(check bool) "ok" true (Invariant.ok m)

let test_invariant_custom_check_fires () =
  let e, _, _, _ = make_link () in
  let m = Invariant.create e () in
  Invariant.add_check m ~name:"always-bad" (fun () -> Some "boom");
  Engine.run_until e (Time.secs 0.5);
  Alcotest.(check bool) "violations recorded" true (Invariant.count m > 0);
  Alcotest.(check bool) "not ok" true (not (Invariant.ok m));
  let report = Invariant.report m in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i =
      i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "report names the check" true
    (contains report "always-bad")

(* --- pulser-failure recovery ---------------------------------------------- *)

let test_pulser_death_failover () =
  let e, _, topo, route = make_link ~rate_bps:96e6 () in
  let start seed =
    let nim =
      Nimbus.create
        { (Nimbus.Config.default ~mu:(Z_estimator.Mu.known (Rate.bps 96e6)))
          with multi_flow = true; seed }
    in
    let flow =
      Flow.create_via topo ~route
        ~cc:(Nimbus.cc nim ~now:(fun () -> Engine.now e))
        ~prop_rtt:(Time.ms 50.) ()
    in
    (nim, flow)
  in
  let flows = [ start 21; start 77 ] in
  let kill_at = 20. in
  let mode_at_kill = ref Nimbus.Delay in
  let takeover = ref nan in
  let takeover_mode = ref Nimbus.Delay in
  Engine.schedule_at e (Time.secs kill_at) (fun () ->
      match
        List.find_opt (fun (n, _) -> Nimbus.role n = Nimbus.Pulser) flows
      with
      | None -> Alcotest.fail "no pulser to kill at t=20"
      | Some (n, f) ->
        mode_at_kill := Nimbus.mode n;
        Flow.apply f Flow.Control.Stop);
  (* strictly after the kill: same-timestamp events run in unspecified
     order, and sampling first would see the victim still in the role *)
  Engine.every e ~dt:(Time.ms 50.) ~start:(Time.secs (kill_at +. 0.05))
    (fun () ->
      if Float.is_nan !takeover then
        match
          List.find_opt
            (fun (n, f) ->
              (not (Flow.stopped f)) && Nimbus.role n = Nimbus.Pulser)
            flows
        with
        | Some (n, _) ->
          takeover := Time.to_secs (Engine.now e) -. kill_at;
          takeover_mode := Nimbus.mode n
        | None -> ());
  Engine.run_until e (Time.secs 30.);
  Alcotest.(check bool) "a watcher took over" true
    (not (Float.is_nan !takeover));
  (* one 5 s FFT window is the recovery budget: ~1 s for the keep-alive
     probe to go quiet, pulse_timeout of silence, then the boosted Eq. 5
     election *)
  Alcotest.(check bool) "within one FFT window" true (!takeover <= 5.);
  Alcotest.(check bool) "mode survives the handoff" true
    (!takeover_mode = !mode_at_kill);
  let live =
    List.filter
      (fun (n, f) -> (not (Flow.stopped f)) && Nimbus.role n = Nimbus.Pulser)
      flows
  in
  Alcotest.(check int) "exactly one live pulser at the end" 1
    (List.length live)

(* --- crash-isolating runner ----------------------------------------------- *)

let test_run_case_ok () =
  match Common.run_case ~seed:5 (fun ~seed -> seed + 1) with
  | Ok v -> Alcotest.(check int) "result" 6 v
  | Error _ -> Alcotest.fail "unexpected crash"

let failure_msg = function Failure m -> m | e -> Printexc.to_string e

(* fails on its original seed only: a rekeyed retry passes *)
let fails_at_42 ~seed = if seed = 42 then failwith "seed 42" else seed * 2

let test_run_case_retries_on_fresh_stream () =
  match Common.run_case ~attempts:2 ~seed:42 fails_at_42 with
  | Ok v -> Alcotest.(check bool) "retried under a rekeyed seed" true (v <> 84)
  | Error _ -> Alcotest.fail "retry should have recovered"

(* a table run keeps the default single attempt: the crash is reported at
   its own seed, never hidden behind another seed's result *)
let test_run_case_table_policy () =
  (match Common.run_case ~seed:42 fails_at_42 with
   | Ok _ -> Alcotest.fail "one attempt must not retry"
   | Error c ->
     Alcotest.(check int) "own seed" 42 c.Common.crash_seed;
     Alcotest.(check int) "one attempt" 1 c.Common.crash_attempts;
     Alcotest.(check string) "the raised exception" "seed 42"
       (failure_msg c.Common.crash_exn));
  (* the same through run_seeds, as exp_table1 and exp_faults call it *)
  let p = { Common.quick with Common.seeds = 3 } in
  let cells =
    Common.run_seeds p ~base:41 (fun ~seed ->
        match Common.run_case ~seed fails_at_42 with
        | Ok v -> string_of_int v
        | Error c -> Common.crash_cell c)
  in
  Alcotest.(check (list string)) "crash cell at seed 42"
    [ "82"; "!crash(seed 42)"; "86" ] cells

let test_run_case_double_failure () =
  match
    Common.run_case ~attempts:2 ~seed:7 (fun ~seed:_ -> failwith "boom")
  with
  | Ok _ -> Alcotest.fail "should have crashed"
  | Error c ->
    Alcotest.(check int) "both attempts consumed" 2 c.Common.crash_attempts;
    Alcotest.(check string) "captures the exception" "boom"
      (failure_msg c.Common.crash_exn);
    Alcotest.(check string) "table marker" "!crash(seed 7)"
      (Common.crash_cell c)

let test_run_case_check_rejects () =
  match
    Common.run_case ~seed:3
      ~check:(fun v -> if Float.is_nan v then Some "nan result" else None)
      (fun ~seed:_ -> nan)
  with
  | Ok _ -> Alcotest.fail "check should have rejected"
  | Error c ->
    Alcotest.(check string) "reason mentions the check"
      "invalid result: nan result" (failure_msg c.Common.crash_exn)

(* a crash in one case must leave every other case's output byte-identical
   between a serial run and a pooled one *)
let test_crash_isolated_rows_identical () =
  let cases = [ ("a", 1); ("b", 2); ("c", 3); ("d", 4) ] in
  let row (label, seed) =
    match
      Common.run_case ~seed (fun ~seed ->
          if String.equal label "b" then failwith "forced crash"
          else Printf.sprintf "r%d" (seed * 11))
    with
    | Ok v -> v
    | Error c -> Common.crash_cell c
  in
  let serial = Common.map_cases Common.quick cases ~f:row in
  let pooled =
    Pool.run ~domains:4 (fun pool ->
        Common.map_cases
          { Common.quick with Common.pool = Some pool }
          cases ~f:row)
  in
  Alcotest.(check (list string)) "serial = pooled" serial pooled;
  Alcotest.(check (list string)) "crash marked, others intact"
    [ "r11"; "!crash(seed 2)"; "r33"; "r44" ]
    serial

let qtest = QCheck_alcotest.to_alcotest

let suite =
  [ ( "faults.gilbert-elliott",
      [ Alcotest.test_case "validation" `Quick test_ge_validation;
        Alcotest.test_case "degenerates to uniform" `Quick
          test_ge_degenerates_to_uniform;
        qtest prop_ge_stationary ] );
    ( "faults.plan",
      [ Alcotest.test_case "parse round trip" `Quick test_parse_roundtrip;
        Alcotest.test_case "all clauses" `Quick test_parse_all_clauses;
        Alcotest.test_case "rejects garbage" `Quick test_parse_rejects_garbage;
        Alcotest.test_case "exponent times" `Quick test_parse_exponent_times;
        qtest prop_parse_total_strings; qtest prop_parse_total_specs ]
    );
    ( "faults.attach",
      [ Alcotest.test_case "rate step and outage" `Quick
          test_attach_rate_step_and_outage;
        Alcotest.test_case "burst loss" `Quick test_attach_burst_loss;
        Alcotest.test_case "ack loss" `Quick test_attach_ack_loss;
        Alcotest.test_case "kill and validation" `Quick
          test_attach_kill_and_validation ] );
    ( "faults.invariant",
      [ Alcotest.test_case "benign run" `Quick test_invariant_benign_run;
        Alcotest.test_case "custom check fires" `Quick
          test_invariant_custom_check_fires ] );
    ( "faults.failover",
      [ Alcotest.test_case "pulser death" `Slow test_pulser_death_failover ] );
    ( "faults.crash-isolation",
      [ Alcotest.test_case "ok case" `Quick test_run_case_ok;
        Alcotest.test_case "retry on fresh stream" `Quick
          test_run_case_retries_on_fresh_stream;
        Alcotest.test_case "table policy: crash at own seed" `Quick
          test_run_case_table_policy;
        Alcotest.test_case "double failure" `Quick test_run_case_double_failure;
        Alcotest.test_case "check rejects" `Quick test_run_case_check_rejects;
        Alcotest.test_case "rows identical under pool" `Quick
          test_crash_isolated_rows_identical ] ) ]
