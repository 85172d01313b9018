(* Driver for the analysis suite.

   Runs seven passes, in this order, and merges their findings:
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
   [--json FILE] [--dot FILE] [--summary-md FILE] [--suppressions] [--quiet]"

let layering_pass file units =
  let bad msg =
    ( [ Finding.v ~pass_:"layering" ~rule:"layer-bad-contract" ~file ~line:1
          msg ],
      [], [] )
  in
  match Layering.parse_layers (Sexp.load file) with
  | Ok layers ->
    let fs, edges = Layering.check layers units in
    (fs, layers, edges)
  | Error msg -> bad msg
  | exception Sexp.Parse_error msg -> bad msg

let () =
  let src_roots = ref [] in
  let cmt_roots = ref [] in
  let layers_file = ref "" in
  let json_file = ref "" in
  let dot_file = ref "" in
  let summary_md = ref "" in
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
  let units, scan_findings = Cmt_scan.scan cmt_roots in
  let defs = Defs.collect (Cmt_scan.alias_mods units) units in
  let sup = Suppress.create () in
  (* what the passes report besides findings: the dot graph and the
     summary-line counts *)
  let layers = ref [] and edges = ref [] in
  let verified = ref 0 and certified = ref 0 and sites = ref 0 in
  let checked = ref 0 in
  let passes =
    [
      ("parsetree", fun () -> Rules.check_tree src_roots);
      ( "determinism",
        fun () -> Determinism.check ~sup ~scope:Defs.sim_libs defs units );
      ( "layering",
        fun () ->
          if !layers_file = "" then []
          else
            let fs, l, e = layering_pass !layers_file units in
            layers := l;
            edges := e;
            fs );
      ( "alloc",
        fun () ->
          let r = Alloc.check ~sup defs in
          verified := List.length r.verified;
          r.findings );
      ( "race",
        fun () ->
          let r = Race.check ~sup ~scope:Defs.sim_libs defs units in
          certified := List.length r.certified;
          sites := r.sites;
          r.findings );
      ( "units",
        fun () ->
          let api, registry = Unit_api.create defs in
          let flow =
            Units_flow.check ~sup ~scope:Units_flow.default_scope api defs
          in
          checked := flow.checked;
          registry @ flow.findings
          @ Units_boundary.check ~sup ~scope:Units_boundary.default_scope api
              defs );
      ("suppress", fun () -> Suppress.stale sup);
    ]
  in
  let pass_stats =
    List.map
      (fun (name, body) ->
        let t0 = Sys.time () in
        let fs = body () in
        (name, fs, Sys.time () -. t0))
      passes
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
      (scan_findings @ List.concat_map (fun (_, fs, _) -> fs) pass_stats)
  in

  (* reports *)
  (if !dot_file <> "" then
     let oc = open_out !dot_file in
     output_string oc (Layering.to_dot !layers !edges);
     close_out oc);
  (if !json_file <> "" then begin
     let oc = open_out !json_file in
     List.iter (fun f -> output_string oc (Finding.to_json f ^ "\n")) findings;
     close_out oc
   end);
  if not !quiet then
    List.iter (fun f -> Format.printf "%a@." Finding.pp f) findings;
  List.iter
    (fun (name, fs, secs) ->
      Printf.printf "analyze: pass %-11s %3d finding(s) in %.2fs\n" name
        (List.length fs) secs)
    pass_stats;
  (if !summary_md <> "" then begin
     let oc = open_out !summary_md in
     output_string oc "### analyze per-pass summary\n\n";
     output_string oc "| pass | findings | runtime (s) |\n";
     output_string oc "| --- | ---: | ---: |\n";
     List.iter
       (fun (name, fs, secs) ->
         Printf.fprintf oc "| %s | %d | %.2f |\n" name (List.length fs) secs)
       pass_stats;
     Printf.fprintf oc "| **total** | **%d** | **%.2f** |\n"
       (List.fold_left (fun n (_, fs, _) -> n + List.length fs) 0 pass_stats)
       (List.fold_left (fun s (_, _, t) -> s +. t) 0. pass_stats);
     close_out oc
   end);
  Printf.printf
    "analyze: %d finding(s) (%d alloc-free function(s) verified, %d \
     domain-safe function(s) certified, %d pool site(s) checked, %d \
     definition(s) unit-checked)\n"
    (List.length findings) !verified !certified !sites !checked;
  if findings <> [] then exit 1
