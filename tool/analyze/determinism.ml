(* Determinism pass: inside the scoped libraries (everything reachable from
   an engine run — lib/sim, lib/core, lib/dsp, lib/faults), wall-clock reads,
   ambient process state, the global Random state, and order-dependent
   Hashtbl iteration are banned.  Simulated time must come from Engine and
   randomness from Rng.split, or traces stop being byte-identical across
   repeats and --jobs fan-out.

   Sub-rule det-poly-compare: the polymorphic structural operations
   ([=]/[<>]/[compare]/[Hashtbl.hash]) applied to a float-bearing type are
   banned in the same scope.  Structural float comparison disagrees with
   IEEE semantics exactly where traces are most fragile ([nan = nan] is
   false but [compare nan nan] is 0, and two boxed NaN payloads can hash
   apart), so these must go through [Float.equal]/[Float.compare] or a
   typed comparator.

   An expression can be exempted with [@det_ok "reason"]. *)

let banned : (string, string * string) Hashtbl.t = Hashtbl.create 64

let () =
  let add rule msg names =
    List.iter (fun n -> Hashtbl.replace banned n (rule, msg)) names
  in
  add "det-wall-clock"
    "wall-clock read; simulated components must take time from Engine.now"
    [
      "Sys.time";
      "Unix.gettimeofday";
      "Unix.time";
      "Unix.gmtime";
      "Unix.localtime";
    ];
  add "det-global-random"
    "global Random state; draw from a run-scoped Rng.split stream instead"
    [
      "Random.self_init";
      "Random.init";
      "Random.full_init";
      "Random.bits";
      "Random.bits32";
      "Random.bits64";
      "Random.int";
      "Random.int32";
      "Random.int64";
      "Random.nativeint";
      "Random.float";
      "Random.bool";
      "Random.get_state";
      "Random.set_state";
      "Random.State.make_self_init";
    ];
  add "det-hashtbl-order"
    "Hashtbl iteration order depends on hashing/insertion history; iterate \
     over sorted keys (or a deterministic structure) before feeding outputs"
    [
      "Hashtbl.iter";
      "Hashtbl.fold";
      "Hashtbl.to_seq";
      "Hashtbl.to_seq_keys";
      "Hashtbl.to_seq_values";
    ];
  add "det-ambient-env"
    "ambient process state; thread configuration in explicitly from the \
     entry point"
    [ "Sys.getenv"; "Sys.getenv_opt"; "Sys.argv" ]

(* the polymorphic structural operations det-poly-compare polices *)
let poly_ops = [ "="; "<>"; "compare"; "Hashtbl.hash"; "Hashtbl.seeded_hash" ]

(* --- float-bearing type test for det-poly-compare --------------------------- *)

(* Whether a value of [ty] can contain a float anywhere structural
   comparison would reach: float/floatarray directly, through tuples and
   type arguments, and through scanned type declarations (manifest, record
   fields, variant payloads).  Abstract types with no visible declaration
   count as float-free: flagging them would make every opaque comparison a
   finding. *)
let bears_float (defs : Defs.t) ~modpath ty0 =
  let rec go fuel (ty : Types.type_expr) =
    if fuel <= 0 then false
    else
      let fuel = fuel - 1 in
      match Types.get_desc ty with
      | Tconstr (p, args, _) ->
        Path.same p Predef.path_float
        ||
        let name = Cmt_scan.normalize_name defs.Defs.aliases (Path.name p) in
        name = "floatarray"
        || (match Defs.resolve_type defs ~modpath name with
           | Some td -> decl fuel td
           | None -> List.exists (go fuel) args)
      | Ttuple tys -> List.exists (go fuel) tys
      | Tpoly (ty, _) -> go fuel ty
      | _ -> false
  and decl fuel (td : Defs.tdecl) =
    (match td.Defs.t_manifest with Some m -> go fuel m | None -> false)
    ||
    match td.Defs.t_kind with
    | Ttype_record labels ->
      List.exists
        (fun (ld : Typedtree.label_declaration) ->
          go fuel ld.ld_type.ctyp_type)
        labels
    | Ttype_variant cstrs ->
      List.exists
        (fun (cd : Typedtree.constructor_declaration) ->
          match cd.cd_args with
          | Cstr_tuple cts ->
            List.exists (fun ct -> go fuel ct.Typedtree.ctyp_type) cts
          | Cstr_record labels ->
            List.exists
              (fun (ld : Typedtree.label_declaration) ->
                go fuel ld.ld_type.ctyp_type)
              labels)
        cstrs
    | _ -> false
  in
  go 30 ty0

let check_unit sink (defs : Defs.t) (u : Cmt_scan.unit_info) =
  let aliases = defs.Defs.aliases in
  let report ~rule ~line msg =
    Suppress.emit sink
      (Finding.v ~pass_:"determinism" ~rule ~file:u.source ~line msg)
  in
  let expr self (e : Typedtree.expression) =
    let line = e.exp_loc.loc_start.pos_lnum in
    Suppress.guard sink ~file:u.source ~fallback:line e.exp_attributes
      (fun () ->
        (match e.exp_desc with
        | Texp_ident (p, _, _) -> (
          let name = Cmt_scan.normalize_path aliases p in
          match Hashtbl.find_opt banned name with
          | Some (rule, msg) ->
            report ~rule ~line (Printf.sprintf "%s: %s" name msg)
          | None -> ())
        | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) ->
          let name = Cmt_scan.normalize_path aliases p in
          if List.mem name poly_ops then
            List.find_map
              (function
                | _, Some (a : Typedtree.expression)
                  when bears_float defs ~modpath:u.modname a.exp_type ->
                  Some a.exp_type
                | _ -> None)
              args
            |> Option.iter (fun ty ->
                   report ~rule:"det-poly-compare" ~line
                     (Printf.sprintf
                        "polymorphic %s on float-bearing type %s; \
                         structural compare/hash disagrees with IEEE float \
                         semantics on NaN, so use Float.equal/Float.compare \
                         (or a typed comparator) to keep traces \
                         byte-identical"
                        name
                        (Format.asprintf "%a" Printtyp.type_expr ty)))
        | _ -> ());
        Tast_iterator.default_iterator.expr self e)
  in
  let iter = { Tast_iterator.default_iterator with expr } in
  Option.iter (iter.structure iter) u.str

let check ~sup ~scope (defs : Defs.t) units =
  let sink = Suppress.sink sup ~attr:"det_ok" in
  snd
    (Suppress.trial sink (fun () ->
         List.iter
           (fun (u : Cmt_scan.unit_info) ->
             match u.lib with
             | Some lib when List.mem lib scope -> check_unit sink defs u
             | _ -> ())
           units))
