(* Self-tests for the typedtree passes (tool/analyze), driven against the
   compiled fixture libraries under tool/analyze/fixtures: each pass must
   flag its bad fixture with the expected rule ids and stay silent on the
   clean one.  A final group runs the passes over the real lib/ cmts with
   the shipped contract, so the suite fails the moment the repo itself
   regresses. *)

module A = Nimbus_analyze

let fixtures_root = "../tool/analyze/fixtures"
let lib_root = "../lib"
let layers_file = "../tool/analyze/layers.sexp"

let scan root =
  let units, errors = A.Cmt_scan.scan [ root ] in
  Alcotest.(check (list string))
    (Printf.sprintf "no cmt read errors under %s" root)
    []
    (List.map (fun f -> f.A.Finding.message) errors);
  units

let rules_of findings =
  List.sort String.compare (List.map (fun f -> f.A.Finding.rule) findings)

(* --- determinism pass ------------------------------------------------------- *)

let test_det_bad () =
  let units = scan fixtures_root in
  let aliases = A.Cmt_scan.alias_mods units in
  let defs = A.Defs.collect aliases units in
  let findings =
    A.Determinism.check ~sup:(A.Suppress.create ()) ~scope:[ "af_det_bad" ]
      defs units
  in
  Alcotest.(check (list string))
    "expected rule ids, in order"
    [
      "det-hashtbl-order"; "det-poly-compare"; "det-poly-compare";
      "det-poly-compare"; "det-global-random"; "det-global-random";
      "det-wall-clock"; "det-bare-suppression";
    ]
    (List.map (fun f -> f.A.Finding.rule) findings);
  List.iter
    (fun f ->
      Alcotest.(check bool)
        "finding points into the fixture" true
        (String.length f.A.Finding.file > 0
        && Filename.dirname f.A.Finding.file <> ""))
    findings

let test_det_clean () =
  let units = scan fixtures_root in
  let aliases = A.Cmt_scan.alias_mods units in
  let defs = A.Defs.collect aliases units in
  Alcotest.(check (list string))
    "clean fixture passes (including the [@det_ok] suppression)" []
    (rules_of
       (A.Determinism.check ~sup:(A.Suppress.create ()) ~scope:[ "af_det_clean" ]
          defs units))

(* --- layering pass ---------------------------------------------------------- *)

let layers_of_string s =
  match A.Layering.parse_layers (A.Sexp.parse_string s) with
  | Ok layers -> layers
  | Error msg -> Alcotest.fail msg

let all_fixture_libs_above =
  (* af_layer_low strictly below af_layer_high: the recorded edge is legal *)
  "((af_layer_low) (af_layer_high af_det_bad af_det_clean af_alloc \
   af_race_bad af_race_clean af_unit_bad af_unit_clean))"

let same_layer =
  "((af_layer_low af_layer_high af_det_bad af_det_clean af_alloc af_race_bad \
   af_race_clean af_unit_bad af_unit_clean))"

let inverted =
  "((af_layer_high af_det_bad af_det_clean af_alloc af_race_bad \
   af_race_clean af_unit_bad af_unit_clean) (af_layer_low))"

let test_layering () =
  let units = scan fixtures_root in
  let check_contract contract expected =
    let findings, _ = A.Layering.check (layers_of_string contract) units in
    Alcotest.(check (list string)) contract expected (rules_of findings)
  in
  check_contract all_fixture_libs_above [];
  check_contract same_layer [ "layer-upward-dep" ];
  check_contract inverted [ "layer-upward-dep" ];
  (* a scanned library missing from the contract is itself a finding *)
  let findings, _ =
    A.Layering.check (layers_of_string "((af_layer_low) (af_layer_high))") units
  in
  Alcotest.(check (list string))
    "undeclared fixture libs flagged"
    [
      "layer-undeclared-lib"; "layer-undeclared-lib"; "layer-undeclared-lib";
      "layer-undeclared-lib"; "layer-undeclared-lib"; "layer-undeclared-lib";
      "layer-undeclared-lib";
    ]
    (rules_of findings)

let test_layering_dot () =
  let units = scan fixtures_root in
  let layers = layers_of_string all_fixture_libs_above in
  let _, edges = A.Layering.check layers units in
  let dot = A.Layering.to_dot layers edges in
  Alcotest.(check bool)
    "dot contains the recorded edge" true
    (let needle = "af_layer_high -> af_layer_low" in
     let rec contains i =
       i + String.length needle <= String.length dot
       && (String.sub dot i (String.length needle) = needle || contains (i + 1))
     in
     contains 0)

(* --- allocation pass -------------------------------------------------------- *)

let test_alloc_fixtures () =
  let units = scan fixtures_root in
  let aliases = A.Cmt_scan.alias_mods units in
  let defs = A.Defs.collect aliases units in
  let { A.Alloc.findings; verified } =
    A.Alloc.check ~sup:(A.Suppress.create ()) defs
  in
  Alcotest.(check (list string))
    "exactly the clean definitions verify"
    [
      "Af_alloc__Alloc_cases.clean_caller";
      "Af_alloc__Alloc_cases.clean_identity";
      "Af_alloc__Alloc_cases.clean_slots";
      "Af_alloc__Alloc_cases.clean_sum";
      "Af_alloc__Alloc_cases.clean_suppressed";
    ]
    (List.sort String.compare verified);
  let rules = rules_of findings in
  List.iter
    (fun expected ->
      Alcotest.(check bool)
        (Printf.sprintf "%s reported" expected)
        true (List.mem expected rules))
    [
      "alloc-tuple"; "alloc-closure"; "alloc-call"; "alloc-construct";
      "alloc-ref-escape"; "alloc-callee"; "alloc-bare-suppression";
    ];
  List.iter
    (fun f ->
      Alcotest.(check string)
        "all alloc findings point into the fixture"
        "alloc_cases.ml"
        (Filename.basename f.A.Finding.file))
    findings

(* --- race pass -------------------------------------------------------------- *)

let race_check ~scope units =
  let aliases = A.Cmt_scan.alias_mods units in
  let defs = A.Defs.collect aliases units in
  let sup = A.Suppress.create () in
  (A.Race.check ~sup ~scope defs units, sup)

let in_file base findings =
  List.filter (fun f -> Filename.basename f.A.Finding.file = base) findings

let test_race_bad () =
  let units = scan fixtures_root in
  let { A.Race.findings; certified = _; sites }, sup =
    race_check ~scope:[ "af_race_bad" ] units
  in
  Alcotest.(check (list string))
    "expected rule multiset from the bad fixture"
    [
      "race-bare-suppression"; "race-callee"; "race-global-access";
      "race-mutable-global"; "race-opaque-task"; "race-unsafe-capture";
      "race-unsafe-capture";
    ]
    (rules_of (in_file "race_cases.ml" findings));
  Alcotest.(check (list string))
    "no findings outside the bad fixture" []
    (List.filter
       (fun r -> Filename.basename r <> "race_cases.ml")
       (List.map (fun f -> f.A.Finding.file) findings));
  Alcotest.(check bool)
    (Printf.sprintf "pool/spawn sites were discovered (got %d)" sites)
    true (sites >= 7);
  (* the deliberately pointless [@shared_ok] on an int must come back stale *)
  Alcotest.(check (list string))
    "stale suppression reported" [ "suppress-stale" ]
    (rules_of (in_file "race_cases.ml" (A.Suppress.stale sup)))

let test_race_clean () =
  let units = scan fixtures_root in
  let { A.Race.findings; certified; _ }, sup =
    race_check ~scope:[ "af_race_clean" ] units
  in
  Alcotest.(check (list string))
    "clean fixture passes (captures, wrapper type, reasoned suppression)" []
    (rules_of (in_file "clean_cases.ml" findings));
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (Printf.sprintf "%s certified" name)
        true (List.mem name certified))
    [
      "Af_race_clean__Clean_cases.clean_pure";
      "Af_race_clean__Clean_cases.clean_calls";
    ];
  Alcotest.(check (list string))
    "the reasoned suppression is used, not stale" []
    (rules_of (in_file "clean_cases.ml" (A.Suppress.stale sup)))

(* --- units pass ------------------------------------------------------------- *)

let units_check ~scope units =
  let aliases = A.Cmt_scan.alias_mods units in
  let defs = A.Defs.collect aliases units in
  let api, registry_findings = A.Unit_api.create defs in
  Alcotest.(check (list string))
    "registry attributes parse" [] (rules_of registry_findings);
  let sup = A.Suppress.create () in
  let flow = A.Units_flow.check ~sup ~scope api defs in
  let boundary = A.Units_boundary.check ~sup ~scope api defs in
  (flow, boundary, sup)

let test_units_bad () =
  let units = scan fixtures_root in
  let flow, boundary, sup = units_check ~scope:[ "af_unit_bad" ] units in
  Alcotest.(check (list string))
    "flow rule multiset from the bad fixture"
    [
      "unit-bare-suppression"; "unit-mix"; "unit-mix"; "unit-mix";
      "unit-mix"; "unit-mix"; "unit-rewrap"; "unit-rewrap"; "unit-rewrap";
    ]
    (rules_of flow.A.Units_flow.findings);
  Alcotest.(check (list string))
    "boundary rule multiset"
    [ "unit-raw-boundary"; "unit-raw-boundary" ]
    (rules_of boundary);
  Alcotest.(check bool)
    (Printf.sprintf "enough definitions unit-checked (got %d)"
       flow.A.Units_flow.checked)
    true
    (flow.A.Units_flow.checked >= 15);
  List.iter
    (fun f ->
      Alcotest.(check string)
        "units findings point into the fixture" "unit_cases.ml"
        (Filename.basename f.A.Finding.file))
    (flow.A.Units_flow.findings @ boundary);
  (* the deliberately pointless reasoned [@unit_ok] must come back stale *)
  Alcotest.(check (list string))
    "stale [@unit_ok] reported" [ "suppress-stale" ]
    (rules_of (in_file "unit_cases.ml" (A.Suppress.stale sup)))

let test_units_clean () =
  let units = scan fixtures_root in
  let flow, boundary, sup = units_check ~scope:[ "af_unit_clean" ] units in
  Alcotest.(check (list string))
    "clean fixture passes the dataflow" []
    (rules_of flow.A.Units_flow.findings);
  Alcotest.(check (list string))
    "clean fixture passes the boundary rule" [] (rules_of boundary);
  Alcotest.(check (list string))
    "the reasoned suppression is used, not stale" []
    (rules_of (in_file "clean_cases.ml" (A.Suppress.stale sup)))

(* --- the real repo stays clean ---------------------------------------------- *)

let test_repo_clean () =
  let units = scan lib_root in
  let aliases = A.Cmt_scan.alias_mods units in
  let defs = A.Defs.collect aliases units in
  let sup = A.Suppress.create () in
  Alcotest.(check (list string))
    "determinism: simulation-reachable libs clean" []
    (rules_of (A.Determinism.check ~sup ~scope:A.Defs.sim_libs defs units));
  (match A.Layering.parse_layers (A.Sexp.load layers_file) with
  | Error msg -> Alcotest.fail msg
  | Ok layers ->
    let findings, _ = A.Layering.check layers units in
    Alcotest.(check (list string))
      "layering: real DAG matches layers.sexp" [] (rules_of findings));
  let { A.Alloc.findings; verified } = A.Alloc.check ~sup defs in
  Alcotest.(check (list string))
    "alloc: all [@@alloc_free] bodies verify" [] (rules_of findings);
  Alcotest.(check bool)
    (Printf.sprintf "at least 113 verified hot-path functions (got %d)"
       (List.length verified))
    true
    (List.length verified >= 113);
  (* the tentpole hot paths of the streaming detector, the calendar-queue
     event core and the packet path must stay on the verified list by
     name *)
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (Printf.sprintf "%s verified alloc-free" name)
        true (List.mem name verified))
    [
      "Nimbus_sim__Wheel.push"; "Nimbus_sim__Wheel.top_key";
      "Nimbus_sim__Wheel.pop_top"; "Nimbus_sim__Heap.push_seq";
      "Nimbus_sim__Heap.pop_top"; "Nimbus_sim__Engine.drain";
      "Nimbus_dsp__Goertzel.Bank.push"; "Nimbus_dsp__Goertzel.Bank.amplitude";
      "Nimbus_dsp__Goertzel.Bank.band_max";
      "Nimbus_dsp__Goertzel.Bank.peak_ratio";
      "Nimbus_core__Elasticity.eta_bank";
      "Nimbus_sim__Wheel.push_reg"; "Nimbus_sim__Wheel.load_top_key";
      "Nimbus_sim__Engine.schedule_in"; "Nimbus_sim__Engine.schedule_pkt_in";
      "Nimbus_sim__Bottleneck.start_next"; "Nimbus_sim__Bottleneck.finish";
      "Nimbus_sim__Bottleneck.deliver"; "Nimbus_cc__Flow.handle_delivery";
      "Nimbus_cc__Flow.receiver_leg"; "Nimbus_cc__Flow.sb_find";
      "Nimbus_cc__Flow.sb_add"; "Nimbus_cc__Flow.sb_remove";
      "Nimbus_cc__Flow.ring_push"; "Nimbus_cc__Flow.ring_pop";
      "Nimbus_dsp__Ring.sum"; "Nimbus_dsp__Ring.sum_to";
      "Nimbus_dsp__Ewma.update"; "Nimbus_dsp__Goertzel.Bank.amplitude_to";
      "Nimbus_dsp__Goertzel.Bank.band_max_to";
      "Nimbus_core__Elasticity.mean_to"; "Nimbus_core__Pulse.value_to";
      "Nimbus_core__Nimbus.base_rate_bps";
      "Nimbus_core__Nimbus.delay_cwnd_bytes"; "Nimbus_core__Nimbus.pulse_offset";
      "Nimbus_sim__Packet.make"; "Nimbus_sim__Packet.flow";
      "Nimbus_sim__Packet.seq"; "Nimbus_sim__Packet.size";
      "Nimbus_sim__Rng.bool"; "Nimbus_sim__Rng.bool_at";
      "Nimbus_sim__Wheel.compact_slot"; "Nimbus_sim__Engine.put_spare";
      "Nimbus_sim__Engine.take_spare"; "Nimbus_cc__Flow.init";
      "Nimbus_cc__Flow.release"; "Nimbus_cc__Flow.recycle";
      "Nimbus_cc__Flow.receiver_got"; "Nimbus_cc__Flow.handle_ack";
      "Nimbus_topology__Topology.attach"; "Nimbus_topology__Topology.wire";
      "Nimbus_topology__Topology.check_route";
      "Nimbus_sim__Bottleneck.set_sink";
      "Nimbus_sim__Engine.schedule_at_key"; "Nimbus_sim__Engine.schedule_in_key";
      "Nimbus_sim__Bottleneck.policer_admits"; "Nimbus_cc__Flow.sb_drain";
      "Nimbus_cc__Flow.check_rto"; "Nimbus_cc__Flow.arm_rto";
      "Nimbus_cc__Flow.report_loss"; "Nimbus_dsp__Extremum.push";
      "Nimbus_dsp__Extremum.prune"; "Nimbus_dsp__Extremum.front";
      "Nimbus_dsp__Extremum.standing"; "Nimbus_core__Nimbus.wake";
      "Nimbus_core__Nimbus.publish"; "Nimbus_core__Z_estimator.estimate_to";
      "Nimbus_dsp__Goertzel.Bank.push_at"; "Nimbus_dsp__Ewma.update_at";
      "Nimbus_cc__Bbr.publish"; "Nimbus_cc__Vivace.publish";
      "Nimbus_cc__Basic_delay.publish";
    ];
  let { A.Race.findings = race_findings; certified; sites } =
    A.Race.check ~sup ~scope:A.Defs.sim_libs defs units
  in
  Alcotest.(check (list string))
    "race: every pool boundary certified clean or reasoned" []
    (rules_of race_findings);
  Alcotest.(check bool)
    (Printf.sprintf "at least 3 certified domain-safe functions (got %d)"
       (List.length certified))
    true
    (List.length certified >= 3);
  Alcotest.(check bool)
    (Printf.sprintf "pool call sites were actually checked (got %d)" sites)
    true (sites >= 10);
  let api, registry_findings = A.Unit_api.create defs in
  Alcotest.(check (list string))
    "units: registry attributes in lib/units parse" []
    (rules_of registry_findings);
  let uflow =
    A.Units_flow.check ~sup ~scope:A.Units_flow.default_scope api defs
  in
  Alcotest.(check (list string))
    "units: lib/ dataflow clean (every mix fixed or reasoned)" []
    (rules_of uflow.A.Units_flow.findings);
  Alcotest.(check (list string))
    "units: no raw-float boundaries left in the exported surface" []
    (rules_of
       (A.Units_boundary.check ~sup ~scope:A.Units_boundary.default_scope
          api defs));
  Alcotest.(check bool)
    (Printf.sprintf "units: definitions were actually checked (got %d)"
       uflow.A.Units_flow.checked)
    true
    (uflow.A.Units_flow.checked >= 100);
  Alcotest.(check (list string))
    "suppress: no stale suppressions in lib/" []
    (rules_of (A.Suppress.stale sup))

let suite =
  [
    ( "analyze",
      [
        Alcotest.test_case "determinism: bad fixture" `Quick test_det_bad;
        Alcotest.test_case "determinism: clean fixture" `Quick test_det_clean;
        Alcotest.test_case "layering: contracts" `Quick test_layering;
        Alcotest.test_case "layering: dot output" `Quick test_layering_dot;
        Alcotest.test_case "alloc: fixtures" `Quick test_alloc_fixtures;
        Alcotest.test_case "race: bad fixture" `Quick test_race_bad;
        Alcotest.test_case "race: clean fixture" `Quick test_race_clean;
        Alcotest.test_case "units: bad fixture" `Quick test_units_bad;
        Alcotest.test_case "units: clean fixture" `Quick test_units_clean;
        Alcotest.test_case "repo passes its own gates" `Quick test_repo_clean;
      ] );
  ]
