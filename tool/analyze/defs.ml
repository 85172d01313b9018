(* Shared definition and type-declaration tables for the typedtree passes.

   The allocation and race passes both need the same machinery: collect every
   module-level value binding and type declaration out of the scanned cmts
   (keyed "Modpath.name"), resolve a referenced name from inside some module
   back to its definition (trying enclosing scopes innermost-first), and see
   through dune's wrapped-library alias modules as well as in-source
   [module X = Y] aliases.  It also holds the plumbing every typedtree pass
   shares: which definitions a pass checks ([annotated], [in_libs]), the
   walk over sub-expressions, and the one memoized, cycle-cut verdict per
   definition ([memo]) behind alloc verification, race certification and
   units summaries. *)

type vdef = {
  d_key : string;
  d_expr : Typedtree.expression;
  d_attrs : Parsetree.attributes;
  d_source : string;
  d_modpath : string;
  d_line : int;
}

type tdecl = {
  t_key : string;
  t_params : Types.type_expr list;
  t_kind : Typedtree.type_kind;
  t_manifest : Types.type_expr option;
  t_attrs : Parsetree.attributes;
  t_source : string;
  t_line : int;
}

type t = {
  defs : (string, vdef) Hashtbl.t;
  types : (string, tdecl) Hashtbl.t;
  (* module-alias paths, e.g. "Nimbus_sim__Engine.Time" -> "Units__Time" *)
  mod_aliases : (string, string) Hashtbl.t;
  aliases : (string, unit) Hashtbl.t;  (* wrapped-library alias modules *)
  (* unique names of every module-level value ident, across all scanned
     units: a free Pident NOT in here is a local of some enclosing function *)
  module_level : (string, unit) Hashtbl.t;
}

let has_attr name attrs =
  List.exists
    (fun (a : Parsetree.attribute) -> String.equal a.attr_name.txt name)
    attrs

let find_attr name attrs =
  List.find_opt
    (fun (a : Parsetree.attribute) -> String.equal a.attr_name.txt name)
    attrs

(* the conventional payload of a suppression/certification attribute:
   [@attr "reason"] *)
let attr_reason (a : Parsetree.attribute) =
  match a.attr_payload with
  | Parsetree.PStr
      [
        {
          pstr_desc =
            Pstr_eval
              ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
          _;
        };
      ] ->
    Some s
  | _ -> None

(* --- collection ------------------------------------------------------------ *)

let rec pat_idents : type k. (Ident.t -> unit) -> k Typedtree.general_pattern -> unit =
 fun add p ->
  (match p.pat_desc with
  | Typedtree.Tpat_var (id, _) -> add id
  | Typedtree.Tpat_alias (_, id, _) -> add id
  | _ -> ());
  let it =
    {
      Tast_iterator.default_iterator with
      pat =
        (fun (type k2) _ (q : k2 Typedtree.general_pattern) ->
          pat_idents add q);
    }
  in
  Tast_iterator.default_iterator.pat it p

(* [let x : t = e] typechecks the constrained pattern as an alias over the
   constraint, so a named binding is Tpat_var or Tpat_alias *)
let binding_name (p : Typedtree.pattern) =
  match p.pat_desc with
  | Typedtree.Tpat_var (_, { txt; _ }) -> Some txt
  | Typedtree.Tpat_alias (_, _, { txt; _ }) -> Some txt
  | _ -> None

let collect aliases (units : Cmt_scan.unit_info list) =
  let t =
    {
      defs = Hashtbl.create 512;
      types = Hashtbl.create 256;
      mod_aliases = Hashtbl.create 64;
      aliases;
      module_level = Hashtbl.create 1024;
    }
  in
  let rec collect_str ~modpath ~source (str : Typedtree.structure) =
    List.iter (collect_item ~modpath ~source) str.str_items
  and collect_item ~modpath ~source (item : Typedtree.structure_item) =
    match item.str_desc with
    | Tstr_value (_, vbs) ->
      List.iter
        (fun (vb : Typedtree.value_binding) ->
          pat_idents
            (fun id -> Hashtbl.replace t.module_level (Ident.unique_name id) ())
            vb.vb_pat;
          match binding_name vb.vb_pat with
          | Some txt ->
            let d_key = modpath ^ "." ^ txt in
            Hashtbl.replace t.defs d_key
              {
                d_key;
                d_expr = vb.vb_expr;
                d_attrs = vb.vb_attributes;
                d_source = source;
                d_modpath = modpath;
                d_line = vb.vb_loc.loc_start.pos_lnum;
              }
          | None -> ())
        vbs
    | Tstr_type (_, decls) ->
      List.iter
        (fun (td : Typedtree.type_declaration) ->
          let t_key = modpath ^ "." ^ td.typ_name.txt in
          Hashtbl.replace t.types t_key
            {
              t_key;
              t_params = List.map (fun (ct, _) -> ct.Typedtree.ctyp_type) td.typ_params;
              t_kind = td.typ_kind;
              t_manifest =
                Option.map (fun ct -> ct.Typedtree.ctyp_type) td.typ_manifest;
              t_attrs = td.typ_attributes;
              t_source = source;
              t_line = td.typ_loc.loc_start.pos_lnum;
            })
        decls
    | Tstr_module mb -> collect_mb ~modpath ~source mb
    | Tstr_recmodule mbs -> List.iter (collect_mb ~modpath ~source) mbs
    | _ -> ()
  and collect_mb ~modpath ~source (mb : Typedtree.module_binding) =
    match mb.mb_name.txt with
    | Some name -> collect_mod ~modpath:(modpath ^ "." ^ name) ~source mb.mb_expr
    | None -> ()
  and collect_mod ~modpath ~source (me : Typedtree.module_expr) =
    match me.mod_desc with
    | Tmod_structure str -> collect_str ~modpath ~source str
    | Tmod_constraint (me, _, _, _) -> collect_mod ~modpath ~source me
    | Tmod_ident (p, _) ->
      Hashtbl.replace t.mod_aliases modpath
        (Cmt_scan.normalize_name aliases (Path.name p))
    | _ -> ()
  in
  List.iter
    (fun (u : Cmt_scan.unit_info) ->
      match u.str with
      | Some str -> collect_str ~modpath:u.modname ~source:u.source str
      | None -> ())
    units;
  t

(* --- resolution ------------------------------------------------------------ *)

let scopes_of modpath =
  let parts = String.split_on_char '.' modpath in
  let rec prefixes acc = function
    | [] -> acc
    | parts ->
      let prefix = String.concat "." parts in
      prefixes (prefix :: acc)
        (match List.rev parts with _ :: tl -> List.rev tl | [] -> [])
  in
  (* longest (innermost) scope first *)
  List.rev (prefixes [] parts)

let rec expand_aliases t fuel name =
  if fuel = 0 then name
  else
    let parts = String.split_on_char '.' name in
    let n = List.length parts in
    let rec try_prefix k =
      if k <= 0 then name
      else
        let prefix = String.concat "." (List.filteri (fun i _ -> i < k) parts) in
        match Hashtbl.find_opt t.mod_aliases prefix with
        | Some target ->
          let rest = List.filteri (fun i _ -> i >= k) parts in
          expand_aliases t (fuel - 1) (String.concat "." (target :: rest))
        | None -> try_prefix (k - 1)
    in
    try_prefix (n - 1)

let resolve_in : 'a. t -> (string, 'a) Hashtbl.t -> modpath:string -> string -> 'a option =
 fun t tbl ~modpath name ->
  let candidates = name :: List.map (fun s -> s ^ "." ^ name) (scopes_of modpath) in
  let rec go = function
    | [] -> None
    | c :: rest -> (
      match Hashtbl.find_opt tbl c with
      | Some d -> Some d
      | None -> (
        let expanded = expand_aliases t 5 c in
        if not (String.equal expanded c) then
          match Hashtbl.find_opt tbl expanded with
          | Some d -> Some d
          | None -> go rest
        else go rest))
  in
  go candidates

let resolve t ~modpath name = resolve_in t t.defs ~modpath name

let resolve_type t ~modpath name = resolve_in t t.types ~modpath name

let is_module_level t id = Hashtbl.mem t.module_level (Ident.unique_name id)

(* --- shared pass plumbing --------------------------------------------------- *)

let sim_libs =
  [ "nimbus_sim"; "nimbus_topology"; "nimbus_core"; "nimbus_dsp";
    "nimbus_faults" ]

let annotated attr t =
  Hashtbl.fold
    (fun _ d acc -> if has_attr attr d.d_attrs then d :: acc else acc)
    t.defs []
  |> List.sort (fun a b -> String.compare a.d_key b.d_key)

let in_libs libs t =
  let lib_of d =
    Cmt_scan.lib_of_modname
      (match String.index_opt d.d_modpath '.' with
      | Some i -> String.sub d.d_modpath 0 i
      | None -> d.d_modpath)
  in
  Hashtbl.fold
    (fun _ d acc -> if List.mem (lib_of d) libs then d :: acc else acc)
    t.defs []
  |> List.sort (fun a b ->
         match String.compare a.d_source b.d_source with
         | 0 -> (
           match Int.compare a.d_line b.d_line with
           | 0 -> String.compare a.d_key b.d_key
           | c -> c)
         | c -> c)

let children f e =
  let it = { Tast_iterator.default_iterator with expr = (fun _ e -> f e) } in
  Tast_iterator.default_iterator.expr it e

let memo tbl ~cycle f d =
  match Hashtbl.find_opt tbl d.d_key with
  | Some (Some v) -> v
  | Some None -> cycle
  | None ->
    Hashtbl.replace tbl d.d_key None;
    let v = f d in
    Hashtbl.replace tbl d.d_key (Some v);
    v
