(* Race / domain-safety pass.

   Everything that crosses the domain pool must be certified, not trusted
   to a doc comment.  Three sub-rules:

   1. Capture analysis at every pool entry point — [Pool.map], the
      pool's internal [submit] (which [Pool.map] publishes its step
      through), [Common.map_cases] / [Common.run_seeds], and
      [Domain.spawn].  A task
      closure passed there runs on an arbitrary domain; any *free* variable
      it captures from an enclosing function must classify domain-safe
      ({!Type_class}), or carry an in-source
      [(x [@shared_ok "why"])] suppression whose reason is auditable.
      Values created inside the task body are by construction unshared and
      never flagged; module-level values are the business of sub-rule 3.
      A task that is not a literal closure cannot be capture-checked: it
      must resolve to a [@@domain_safe] function or carry [@shared_ok].

   2. Function certification: a binding annotated [@@domain_safe "why"?]
      must transitively avoid module-level mutable state — its body may not
      read or write a module-level value of domain-unsafe type, may not
      call ambient-state stdlib entry points (Random/Sys/Unix/printing to
      the shared std channels), and every statically-known callee must be
      certified, verify recursively clean (memoized, cycle-safe), or be a
      stdlib function that only touches its arguments.  Indirect calls
      through closure values are deliberately allowed: the values those
      closures captured were checked at the pool boundary by sub-rule 1,
      and this keeps certification tractable in callback-heavy code — the
      documented soundness trade-off of this pass.

   3. Global sweep: every module-level non-function binding of
      domain-unsafe type inside the simulation-reachable libraries
      (nimbus_sim/core/dsp/faults) is a finding — those libraries run on
      pool domains, so a mutable global there is a latent cross-domain
      race even before anyone writes to it.  A deliberate, synchronised
      global carries a binding-level [@@shared_ok "why"].

   All [@shared_ok] suppressions must carry a reason string and are
   tracked by {!Suppress} so stale ones surface as findings. *)

(* --- entry points ----------------------------------------------------------- *)

type task_filter = Labelled_f | Any_arrow

let canonical_entries =
  [
    ("Nimbus_parallel__Pool.map", ("Pool.map", Labelled_f));
    ("Nimbus_parallel__Pool.submit", ("Pool.submit", Any_arrow));
    ("Nimbus_experiments__Common.map_cases", ("Common.map_cases", Labelled_f));
    ("Nimbus_experiments__Common.run_seeds", ("Common.run_seeds", Any_arrow));
  ]

(* spellings seen when the defining library is not in the scanned set (the
   fixture libraries reference the wrapped alias module directly), plus the
   stdlib domain spawn *)
let external_entries =
  [
    ("Domain.spawn", ("Domain.spawn", Any_arrow));
    ("Nimbus_parallel.Pool.map", ("Pool.map", Labelled_f));
    ("Nimbus_experiments.Common.map_cases", ("Common.map_cases", Labelled_f));
    ("Nimbus_experiments.Common.run_seeds", ("Common.run_seeds", Any_arrow));
  ]

(* --- stdlib call classification for certification --------------------------- *)

(* stdlib entry points that read or write ambient process state; calling
   one from a certified body is a finding no matter the arguments *)
let banned_exact =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun n -> Hashtbl.replace tbl n ())
    [
      "exit"; "at_exit"; "print_string"; "print_bytes"; "print_int";
      "print_float"; "print_char"; "print_endline"; "print_newline";
      "prerr_string"; "prerr_bytes"; "prerr_int"; "prerr_float";
      "prerr_char"; "prerr_endline"; "prerr_newline"; "read_line";
      "read_int"; "read_int_opt"; "read_float"; "read_float_opt";
    ];
  tbl

let banned_prefixes =
  [
    "Random."; "Unix."; "Sys."; "Printf.printf"; "Printf.eprintf";
    "Format.printf"; "Format.eprintf"; "Format.std_formatter";
    "Format.err_formatter";
  ]

let is_banned name =
  Hashtbl.mem banned_exact name
  || (List.exists (fun prefix -> String.starts_with ~prefix name)
        banned_prefixes
     (* explicit-state Random.State is fine; only self-seeding is ambient *)
     && not
          (String.starts_with ~prefix:"Random.State." name
          && name <> "Random.State.make_self_init"))

(* stdlib modules whose functions only touch their arguments: shared-state
   trouble can only come in through an argument, and arguments are covered
   by the module-level-ident rule *)
let stdlib_modules =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun n -> Hashtbl.replace tbl n ())
    [
      "Array"; "ArrayLabels"; "Bytes"; "BytesLabels"; "String";
      "StringLabels"; "List"; "ListLabels"; "Option"; "Result"; "Either";
      "Int"; "Float"; "Bool"; "Char"; "Uchar"; "Int32"; "Int64";
      "Nativeint"; "Hashtbl"; "Buffer"; "Queue"; "Stack"; "Map"; "Set";
      "Seq"; "Fun"; "Atomic"; "Mutex"; "Condition"; "Semaphore"; "Domain";
      "Printexc"; "Lazy"; "Gc"; "Digest"; "Complex"; "Printf"; "Format";
      "Filename"; "Marshal"; "Scanf"; "Arg"; "In_channel"; "Out_channel";
      "Bigarray"; "Stdlib";
    ];
  tbl

(* --- state ------------------------------------------------------------------ *)

type state = {
  defs : Defs.t;
  sink : Suppress.sink;
  certs : (string, Finding.t list option) Hashtbl.t;
}

let finding st ~rule ~file ~line message =
  Suppress.emit st.sink (Finding.v ~pass_:"race" ~rule ~file ~line message)

(* --- type helpers ----------------------------------------------------------- *)

let rec is_arrowish st ~modpath fuel (ty : Types.type_expr) =
  match Types.get_desc ty with
  | Tarrow _ -> true
  | Tpoly (ty, _) -> is_arrowish st ~modpath fuel ty
  | Tconstr (p, _, _) when fuel > 0 -> (
    let name = Cmt_scan.normalize_name st.defs.Defs.aliases (Path.name p) in
    match Defs.resolve_type st.defs ~modpath name with
    | Some { Defs.t_manifest = Some m; _ } ->
      is_arrowish st ~modpath (fuel - 1) m
    | _ -> false)
  | _ -> false

let type_str ty = Format.asprintf "%a" Printtyp.type_expr ty

(* --- sub-rule 1: capture analysis ------------------------------------------- *)

let check_task st ~(u : Cmt_scan.unit_info) ~entry (te : Typedtree.expression)
    =
  let file = u.source in
  match te.exp_desc with
  | Texp_function _ ->
    List.iter
      (fun occs ->
        let o = List.hd occs in
        (* the first occurrence carrying [@shared_ok], if any, suppresses
           the capture; on a capture the pass finds harmless it is stale *)
        let oc =
          Option.value ~default:o
            (List.find_opt
               (fun (oc : Freevars.occ) -> Defs.has_attr "shared_ok" oc.o_attrs)
               occs)
        in
        Suppress.guard st.sink ~file ~fallback:oc.o_line oc.o_attrs (fun () ->
            if not (Defs.is_module_level st.defs o.o_id) then
              match Type_class.classify st.defs ~modpath:u.modname o.o_type with
              | Type_class.Safe -> ()
              | Type_class.Unsafe why ->
                finding st ~rule:"race-unsafe-capture" ~file ~line:o.o_line
                  (Printf.sprintf
                     "task passed to %s captures %s : %s — %s; create it \
                      inside the task body, make it domain-safe, or annotate \
                      the capture (%s [@shared_ok \"why\"])"
                     entry (Ident.name o.o_id) (type_str o.o_type) why
                     (Ident.name o.o_id))))
      (Freevars.free te)
  | Texp_ident (p, _, _) -> (
    let name = Cmt_scan.normalize_path st.defs.Defs.aliases p in
    match Defs.resolve st.defs ~modpath:u.modname name with
    | Some d when Defs.has_attr "domain_safe" d.Defs.d_attrs -> ()
    | _ ->
      finding st ~rule:"race-opaque-task" ~file
        ~line:te.exp_loc.loc_start.pos_lnum
        (Printf.sprintf
           "task %s passed to %s is not a literal closure, so its captures \
            cannot be checked here; certify it [@@domain_safe] or annotate \
            it (%s [@shared_ok \"why\"])"
           name entry name))
  | _ ->
    finding st ~rule:"race-opaque-task" ~file
      ~line:te.exp_loc.loc_start.pos_lnum
      (Printf.sprintf
         "task passed to %s is not a literal closure, so its captures \
          cannot be checked; bind it to a [@@domain_safe] function or \
          annotate it [@shared_ok \"why\"]"
         entry)

let entry_of st ~modpath name =
  let lookup n =
    match List.assoc_opt n external_entries with
    | Some e -> Some e
    | None -> List.assoc_opt n canonical_entries
  in
  (* try the name as written, then scoped and module-alias-expanded forms
     (so [module P = Nimbus_parallel.Pool; P.map ...] still matches), then
     full value resolution back to a canonical definition *)
  let candidates =
    name :: List.map (fun s -> s ^ "." ^ name) (Defs.scopes_of modpath)
  in
  let rec go = function
    | [] -> (
      match Defs.resolve st.defs ~modpath name with
      | Some d -> List.assoc_opt d.Defs.d_key canonical_entries
      | None -> None)
    | c :: rest -> (
      match lookup c with
      | Some e -> Some e
      | None -> (
        match lookup (Defs.expand_aliases st.defs 5 c) with
        | Some e -> Some e
        | None -> go rest))
  in
  go candidates

let scan_sites st (u : Cmt_scan.unit_info) =
  let sites = ref 0 in
  (match u.str with
  | None -> ()
  | Some str ->
    let expr self (e : Typedtree.expression) =
      (match e.exp_desc with
      | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) -> (
        let name = Cmt_scan.normalize_path st.defs.Defs.aliases p in
        match entry_of st ~modpath:u.modname name with
        | None -> ()
        | Some (entry, filter) ->
          incr sites;
          List.iter
            (fun ((label : Asttypes.arg_label), arg) ->
              match arg with
              | Some (a : Typedtree.expression) ->
                let is_task =
                  match filter with
                  | Labelled_f -> label = Asttypes.Labelled "f"
                  | Any_arrow ->
                    label = Asttypes.Nolabel
                    && is_arrowish st ~modpath:u.modname 5 a.exp_type
                in
                if is_task then
                  Suppress.guard st.sink ~file:u.source
                    ~fallback:a.exp_loc.loc_start.pos_lnum a.exp_attributes
                    (fun () -> check_task st ~u ~entry a)
              | None -> ())
            args)
      | _ -> ());
      Tast_iterator.default_iterator.expr self e
    in
    let it = { Tast_iterator.default_iterator with expr } in
    it.structure it str);
  !sites

(* --- sub-rule 2: [@@domain_safe] certification ------------------------------ *)

let rec cert_verdict st d =
  Defs.memo st.certs ~cycle:[]
    (fun d -> snd (Suppress.trial st.sink (fun () -> check_cert st d)))
    d

and check_cert st (d : Defs.vdef) =
  let file = d.Defs.d_source and modpath = d.Defs.d_modpath in
  let bound = Freevars.bound_idents d.Defs.d_expr in
  let rec visit (e : Typedtree.expression) =
    Suppress.guard st.sink ~file ~fallback:e.exp_loc.loc_start.pos_lnum
      e.exp_attributes (fun () -> visit_core e)
  and visit_core (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_apply (({ exp_desc = Texp_ident (p, _, _); _ } as fn), args) ->
      Suppress.guard st.sink ~file ~fallback:fn.exp_loc.loc_start.pos_lnum
        fn.exp_attributes (fun () -> visit_call fn p);
      List.iter (function _, Some a -> visit a | _, None -> ()) args
    | Texp_ident (p, _, _) -> visit_ident e p
    | _ -> Defs.children visit e
  and visit_call (fn : Typedtree.expression) p =
    let name = Cmt_scan.normalize_path st.defs.Defs.aliases p in
    let line = fn.exp_loc.loc_start.pos_lnum in
    if is_banned name then
      finding st ~rule:"race-callee" ~file ~line
        (Printf.sprintf
           "%s reads or writes ambient process state; a [@@domain_safe] \
            body may not reach it"
           name)
    else
      match Defs.resolve st.defs ~modpath name with
      | Some callee ->
        if Defs.has_attr "domain_safe" callee.Defs.d_attrs then ()
        else (
          match cert_verdict st callee with
          | [] -> ()
          | f0 :: _ ->
            finding st ~rule:"race-callee" ~file ~line
              (Printf.sprintf
                 "callee %s is not domain-safe (%s:%d %s); certify it \
                  [@@domain_safe] once fixed"
                 callee.Defs.d_key f0.Finding.file f0.Finding.line
                 f0.Finding.message))
      | None ->
        if not (String.contains name '.') then ()
          (* unresolved bare name: a Stdlib primitive; ambient ones are in
             the ban table, the rest only touch their arguments *)
        else
          let head = List.hd (String.split_on_char '.' name) in
          if Hashtbl.mem stdlib_modules head then ()
          else
            finding st ~rule:"race-callee" ~file ~line
              (Printf.sprintf
                 "call to %s cannot be statically verified domain-safe; \
                  certify it [@@domain_safe] or annotate the call \
                  [@shared_ok \"why\"]"
                 name)
  and visit_ident (e : Typedtree.expression) p =
    let local =
      match p with
      | Path.Pident id -> Hashtbl.mem bound (Ident.unique_name id)
      | _ -> false
    in
    if local then ()
    else if is_arrowish st ~modpath 5 e.exp_type then ()
      (* a module-level function used as a value: its applications are
         covered by the callee rule; as data it is immutable code *)
    else
      match Type_class.classify st.defs ~modpath e.exp_type with
      | Type_class.Safe -> ()
      | Type_class.Unsafe why ->
        finding st ~rule:"race-global-access" ~file
          ~line:e.exp_loc.loc_start.pos_lnum
          (Printf.sprintf
             "certified function %s reaches module-level mutable state %s \
              : %s — %s; pass the state in explicitly or annotate the \
              access [@shared_ok \"why\"]"
             d.Defs.d_key
             (Cmt_scan.normalize_path st.defs.Defs.aliases p)
             (type_str e.exp_type) why)
  in
  visit d.Defs.d_expr

(* --- sub-rule 3: module-level mutable state sweep --------------------------- *)

let sweep st ~scope (units : Cmt_scan.unit_info list) =
  List.iter
    (fun (u : Cmt_scan.unit_info) ->
      match (u.lib, u.str) with
      | Some lib, Some str when List.mem lib scope ->
        let rec str_items modpath (s : Typedtree.structure) =
          List.iter (item modpath) s.str_items
        and item modpath (it : Typedtree.structure_item) =
          match it.str_desc with
          | Tstr_value (_, vbs) -> List.iter (vb modpath) vbs
          | Tstr_module
              {
                mb_name = { txt = Some name; _ };
                mb_expr = { mod_desc = Tmod_structure s; _ };
                _;
              } ->
            str_items (modpath ^ "." ^ name) s
          | _ -> ()
        and vb modpath (v : Typedtree.value_binding) =
          match Defs.binding_name v.vb_pat with
          | Some txt ->
            let ty = v.vb_pat.pat_type in
            if not (is_arrowish st ~modpath 5 ty) then
              Suppress.guard st.sink ~file:u.source
                ~fallback:v.vb_loc.loc_start.pos_lnum v.vb_attributes
                (fun () ->
                  match Type_class.classify st.defs ~modpath ty with
                  | Type_class.Safe -> ()
                  | Type_class.Unsafe why ->
                    finding st ~rule:"race-mutable-global" ~file:u.source
                      ~line:v.vb_loc.loc_start.pos_lnum
                      (Printf.sprintf
                         "module-level mutable state %s.%s : %s — %s; this \
                          library runs on pool domains, so thread the \
                          state through explicitly, or synchronise it and \
                          annotate the binding [@@shared_ok \"why\"]"
                         modpath txt (type_str ty) why))
          | _ -> ()
        in
        str_items u.modname str
      | _ -> ())
    units

(* --- entry point ------------------------------------------------------------ *)

type result = {
  findings : Finding.t list;
  certified : string list;  (* [@@domain_safe] definitions that verified *)
  sites : int;  (* pool entry-point call sites capture-checked *)
}

let check ~sup ~scope (defs : Defs.t) (units : Cmt_scan.unit_info list) =
  let st =
    { defs; sink = Suppress.sink sup ~attr:"shared_ok";
      certs = Hashtbl.create 64 }
  in
  let sites, found =
    Suppress.trial st.sink (fun () ->
        let sites = List.fold_left (fun n u -> n + scan_sites st u) 0 units in
        sweep st ~scope units;
        sites)
  in
  let certified, failed =
    List.partition
      (fun d -> cert_verdict st d = [])
      (Defs.annotated "domain_safe" defs)
  in
  { findings = found @ List.concat_map (cert_verdict st) failed;
    certified = List.map (fun (d : Defs.vdef) -> d.d_key) certified;
    sites }
