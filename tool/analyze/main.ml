(* Driver for the analysis suite.

   Runs seven passes and merges their findings:
     - parsetree : source-text lint rules (migrated from tool/lint)
     - determinism : banned ambient-state escapes in simulation-reachable
       libs, plus det-poly-compare on float-bearing types
     - layering : cmt-imports DAG checked against tool/analyze/layers.sexp
     - alloc : [@@alloc_free] bodies verified allocation-free
     - race : pool-boundary capture checks, [@@domain_safe] certification,
       module-level mutable-state sweep
     - units : dimension taints on raw floats after they leave the
       lib/units carriers (unit-mix / unit-rewrap / unit-raw-boundary)
     - suppress : visited [@det_ok]/[@alloc_ok]/[@shared_ok]/[@unit_ok]
       suppressions that no longer suppress anything

   --pass NAME (repeatable, comma-separable) runs a subset; the suppress
   pass only reports on suppressions the selected passes actually visited.
   --suppressions lists every suppression attribute grouped by kind with
   its status and exits 0.

   Exit code is 1 iff there is any finding: an in-source
   [@det_ok]/[@alloc_ok]/[@shared_ok]/[@unit_ok] carrying its reason is the
   one way to accept one.  --json writes the machine-readable JSONL report;
   --dot writes the dependency graph extracted by the layering pass;
   --summary-md writes a per-pass markdown table (for CI step summaries). *)

open Nimbus_analyze

let usage =
  "analyze [--src-root DIR]... [--cmt-root DIR]... [--layers FILE] \
   [--json FILE] [--dot FILE] [--summary-md FILE] \
   [--pass NAME[,NAME...]]... [--suppressions] [--quiet]\n\n\
   pass names: parsetree determinism layering alloc race units suppress"

let pass_names =
  [ "parsetree"; "determinism"; "layering"; "alloc"; "race"; "units";
    "suppress" ]

let () =
  let src_roots = ref [] in
  let cmt_roots = ref [] in
  let layers_file = ref "" in
  let json_file = ref "" in
  let dot_file = ref "" in
  let summary_md = ref "" in
  let passes = ref [] in
  let list_suppressions = ref false in
  let quiet = ref false in
  let spec =
    [
      ("--src-root", Arg.String (fun d -> src_roots := d :: !src_roots),
       "DIR source tree root for the parsetree pass (repeatable)");
      ("--cmt-root", Arg.String (fun d -> cmt_roots := d :: !cmt_roots),
       "DIR build tree root scanned for .cmt files (repeatable)");
      ("--layers", Arg.Set_string layers_file,
       "FILE declared layer contract (layers.sexp)");
      ("--json", Arg.Set_string json_file,
       "FILE write the JSONL findings report here");
      ("--dot", Arg.Set_string dot_file,
       "FILE write the layering-pass dependency graph here");
      ("--summary-md", Arg.Set_string summary_md,
       "FILE write a per-pass findings/runtime markdown table here");
      ("--pass",
       Arg.String
         (fun arg ->
           List.iter
             (fun p ->
               if p = "" then ()
               else if not (List.mem p pass_names) then
                 raise
                   (Arg.Bad
                      (Printf.sprintf "unknown pass %S (expected one of: %s)"
                         p
                         (String.concat " " pass_names)))
               else passes := p :: !passes)
             (String.split_on_char ',' arg)),
       "NAME[,NAME...] run only the named passes (repeatable, \
        comma-separable)");
      ("--suppressions", Arg.Set list_suppressions,
       " list every [@det_ok]/[@alloc_ok]/[@shared_ok]/[@unit_ok] grouped \
        by kind with file:line, reason, and status, then exit 0");
      ("--quiet", Arg.Set quiet, " only print the summary lines");
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" a)))
    usage;
  let src_roots = List.rev !src_roots and cmt_roots = List.rev !cmt_roots in
  let filtered = !passes <> [] in
  let enabled p = (not filtered) || List.mem p !passes in

  let pass_stats = ref [] in
  let timed name f =
    let t0 = Sys.time () in
    let r, count = f () in
    pass_stats := (name, count, Sys.time () -. t0) :: !pass_stats;
    r
  in

  (* parsetree pass *)
  let parsetree_findings =
    if not (enabled "parsetree") then []
    else
      timed "parsetree" (fun () ->
          let fs = Rules.check_tree src_roots in
          (fs, List.length fs))
  in

  (* cmt-backed passes *)
  let units, scan_findings = Cmt_scan.scan cmt_roots in
  let aliases = Cmt_scan.alias_mods units in
  let defs = Defs.collect aliases units in
  let sup = Suppress.create () in
  let det_findings =
    if not (enabled "determinism") then []
    else
      timed "determinism" (fun () ->
          let fs = Determinism.check ~sup ~scope:Determinism.default_scope defs units in
          (fs, List.length fs))
  in
  let layer_findings, edges, layers =
    if (not (enabled "layering")) || !layers_file = "" then ([], [], [])
    else
      timed "layering" (fun () ->
          let r =
            match Layering.parse_layers (Sexp.load !layers_file) with
            | Ok layers ->
              let fs, edges = Layering.check layers units in
              (fs, edges, layers)
            | Error msg ->
              ( [
                  Finding.v ~pass_:"layering" ~rule:"layer-bad-contract"
                    ~file:!layers_file ~line:1 msg;
                ],
                [], [] )
            | exception Sexp.Parse_error msg ->
              ( [
                  Finding.v ~pass_:"layering" ~rule:"layer-bad-contract"
                    ~file:!layers_file ~line:1 msg;
                ],
                [], [] )
          in
          let fs, _, _ = r in
          (r, List.length fs))
  in
  let alloc_result =
    if not (enabled "alloc") then { Alloc.findings = []; verified = [] }
    else
      timed "alloc" (fun () ->
          let r = Alloc.check ~sup defs in
          (r, List.length r.Alloc.findings))
  in
  let race_result =
    if not (enabled "race") then
      { Race.findings = []; certified = []; sites = 0 }
    else
      timed "race" (fun () ->
          let r = Race.check ~sup ~scope:Race.default_scope defs units in
          (r, List.length r.Race.findings))
  in
  let units_result, registry_findings =
    if not (enabled "units") then ({ Units_flow.findings = []; checked = 0 }, [])
    else
      timed "units" (fun () ->
          let api, registry_findings = Unit_api.create defs in
          let flow =
            Units_flow.check ~sup ~scope:Units_flow.default_scope api defs
          in
          let boundary =
            Units_boundary.check ~sup ~scope:Units_boundary.default_scope api
              defs
          in
          let r =
            {
              Units_flow.findings = flow.Units_flow.findings @ boundary;
              checked = flow.Units_flow.checked;
            }
          in
          ( (r, registry_findings),
            List.length r.Units_flow.findings + List.length registry_findings
          ))
  in
  let suppress_findings =
    if not (enabled "suppress") then []
    else
      timed "suppress" (fun () ->
          let fs = Suppress.stale sup in
          (fs, List.length fs))
  in

  if !list_suppressions then begin
    let listed = Suppress.collect units in
    List.iter
      (fun attr ->
        match
          List.filter (fun (l : Suppress.listed) -> l.l_attr = attr) listed
        with
        | [] -> ()
        | group ->
          Printf.printf "[@%s] — %d suppression(s)\n" attr
            (List.length group);
          List.iter
            (fun (l : Suppress.listed) ->
              Printf.printf "  %s:%d:%s %s\n" l.l_file l.l_line
                (match l.l_reason with
                | Some r -> Printf.sprintf " %S" r
                | None -> " <no reason>")
                (Suppress.status_string (Suppress.status sup l)))
            group)
      Suppress.suppression_attrs;
    exit 0
  end;

  let findings =
    List.sort Finding.compare
      (parsetree_findings @ scan_findings @ det_findings @ layer_findings
     @ alloc_result.Alloc.findings @ race_result.Race.findings
     @ registry_findings @ units_result.Units_flow.findings
     @ suppress_findings)
  in

  (* reports *)
  (if !dot_file <> "" then
     let oc = open_out !dot_file in
     output_string oc (Layering.to_dot layers edges);
     close_out oc);
  (if !json_file <> "" then begin
     let oc = open_out !json_file in
     List.iter (fun f -> output_string oc (Finding.to_json f ^ "\n")) findings;
     close_out oc
   end);
  if not !quiet then
    List.iter (fun f -> Format.printf "%a@." Finding.pp f) findings;
  List.iter
    (fun (name, count, secs) ->
      Printf.printf "analyze: pass %-11s %3d finding(s) in %.2fs\n" name count
        secs)
    (List.rev !pass_stats);
  (if !summary_md <> "" then begin
     let oc = open_out !summary_md in
     output_string oc "### analyze per-pass summary\n\n";
     output_string oc "| pass | findings | runtime (s) |\n";
     output_string oc "| --- | ---: | ---: |\n";
     List.iter
       (fun (name, count, secs) ->
         Printf.fprintf oc "| %s | %d | %.2f |\n" name count secs)
       (List.rev !pass_stats);
     Printf.fprintf oc "| **total** | **%d** | **%.2f** |\n"
       (List.fold_left (fun n (_, c, _) -> n + c) 0 !pass_stats)
       (List.fold_left (fun s (_, _, t) -> s +. t) 0. !pass_stats);
     close_out oc
   end);
  Printf.printf
    "analyze: %d finding(s) (%d alloc-free function(s) verified, %d \
     domain-safe function(s) certified, %d pool site(s) checked, %d \
     definition(s) unit-checked)\n"
    (List.length findings)
    (List.length alloc_result.Alloc.verified)
    (List.length race_result.Race.certified)
    race_result.Race.sites units_result.Units_flow.checked;
  if findings <> [] then exit 1
