(* Units dataflow pass.

   The phantom types in lib/units protect quantities only while they stay
   wrapped; the moment code calls an accessor ([Rate.to_bps], coercion to
   float, …) the value is a bare float.  This pass follows those bare
   floats through the typedtree:

   - a value produced by a registered accessor is tainted with that
     accessor's dimension ({!Dim.t});
   - taints propagate through let-bindings, tuples, conditionals,
     arithmetic and [Float.*] calls, and locally-resolvable function calls
     (via memoized parameter summaries over the shared {!Defs} tables);
   - two *different* base dimensions meeting in an additive operator or a
     comparison is a [unit-mix] finding;
   - a tainted float entering a constructor of a different dimension
     ([Time.secs (Rate.to_bps r)]) is a [unit-rewrap] finding.

   The lattice is deliberately shallow: compound dimensions (rate × time,
   bytes / seconds) and anything the pass cannot prove degrade to an
   untracked top element that never fires findings.  Declared conversion
   helpers ({!Unit_api.is_conv}) return untracked values by design.
   Escapes are per-expression [@unit_ok "why"] attributes, wired into the
   shared suppression tracker so stale ones surface as findings. *)

let default_scope =
  [ "nimbus_core"; "nimbus_cc"; "nimbus_sim"; "nimbus_topology";
    "nimbus_dsp"; "nimbus_faults"; "nimbus_metrics"; "nimbus_traffic";
    "nimbus_experiments" ]

(* --- taint lattice ---------------------------------------------------------- *)

type taint =
  | Dim of Dim.t  (* a float known to carry exactly this dimension *)
  | Param of int  (* the i-th parameter of the function being summarized *)
  | Tuple of taint list
  | Top  (* untracked: never fires findings *)

let join a b = if a = b then a else Top

let base_of = function Dim d when Dim.is_base d -> Some d | _ -> None

let rec subst args = function
  | Param i -> if i < Array.length args then args.(i) else Top
  | Tuple ts -> Tuple (List.map (subst args) ts)
  | (Dim _ | Top) as t -> t

(* --- operator classification ------------------------------------------------ *)

type op =
  | Additive  (* both operands must share a dimension; result keeps it *)
  | Compare  (* same meet rule; result is dimensionless *)
  | Mul  (* scalar is neutral; dimensioned products leave the lattice *)
  | Div  (* scalar divisor is neutral; same-dimension ratio is scalar *)
  | Preserve  (* unary, keeps its operand's taint *)
  | To_scalar  (* result is dimensionless whatever the argument *)

let op_table =
  let tbl = Hashtbl.create 64 in
  let reg names op = List.iter (fun n -> Hashtbl.replace tbl n op) names in
  reg
    [ "+."; "-."; "min"; "max"; "Float.add"; "Float.sub"; "Float.min";
      "Float.max"; "Float.min_num"; "Float.max_num"; "mod_float";
      "Float.rem"; "copysign"; "Float.copy_sign"; "hypot"; "Float.hypot" ]
    Additive;
  reg
    [ "="; "<>"; "<"; ">"; "<="; ">="; "compare"; "Float.compare";
      "Float.equal" ]
    Compare;
  reg [ "*."; "Float.mul" ] Mul;
  reg [ "/."; "Float.div" ] Div;
  reg
    [ "~-."; "~+."; "Float.neg"; "abs_float"; "Float.abs"; "Float.round";
      "Float.trunc"; "floor"; "Float.floor"; "ceil"; "Float.ceil";
      "Float.succ"; "Float.pred" ]
    Preserve;
  reg [ "float_of_int"; "Float.of_int" ] To_scalar;
  tbl

(* --- state ------------------------------------------------------------------ *)

type summary = { s_params : int; s_taint : taint }

type ctx = { file : string; modpath : string }

type state = {
  defs : Defs.t;
  api : Unit_api.t;
  sink : Suppress.sink;
  summaries : (string, summary option) Hashtbl.t;
}

let finding st ~rule ~file ~line message =
  Suppress.emit st.sink (Finding.v ~pass_:"units" ~rule ~file ~line message)

(* --- pattern binding / parameter stripping ---------------------------------- *)

let rec bind_pat :
    type k. _ -> k Typedtree.general_pattern -> taint -> unit =
 fun env (p : _ Typedtree.general_pattern) t ->
  match p.pat_desc with
  | Typedtree.Tpat_var (id, _) -> Hashtbl.replace env (Ident.unique_name id) t
  | Typedtree.Tpat_alias (p', id, _) ->
    Hashtbl.replace env (Ident.unique_name id) t;
    bind_pat env p' t
  | Typedtree.Tpat_tuple ps -> (
    match t with
    | Tuple ts when List.length ts = List.length ps ->
      List.iter2 (bind_pat env) ps ts
    | _ -> List.iter (fun p -> bind_pat env p Top) ps)
  | Typedtree.Tpat_value arg ->
    bind_pat env (arg :> Typedtree.value Typedtree.general_pattern) t
  | _ -> ()
(* variables under any other pattern stay unbound and evaluate to Top *)

(* Strip the outermost curried-parameter chain, binding each simple
   parameter to [Param i]; stops at the first multi-case [function] (its
   cases are checked by normal evaluation). *)
let rec strip_params env idx (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_function { cases = [ c ]; _ } ->
    bind_pat env c.c_lhs (Param idx);
    strip_params env (idx + 1) c.c_rhs
  | _ -> (idx, e)

(* --- evaluation ------------------------------------------------------------- *)

let rec eval st ctx env (e : Typedtree.expression) : taint =
  Suppress.guard st.sink ~file:ctx.file ~fallback:e.exp_loc.loc_start.pos_lnum
    e.exp_attributes (fun () -> eval_core st ctx env e)

and eval_core st ctx env (e : Typedtree.expression) : taint =
  match e.exp_desc with
  | Texp_constant _ -> Dim Dim.Scalar
  | Texp_ident (p, _, vd) -> ident_taint st ctx env p vd
  | Texp_apply (({ exp_desc = Texp_ident (p, _, _); _ } as fn), args) ->
    eval_apply st ctx env fn p args
  | Texp_apply (fn, args) ->
    ignore (eval st ctx env fn);
    List.iter
      (function _, Some a -> ignore (eval st ctx env a) | _, None -> ())
      args;
    Top
  | Texp_let (_, vbs, body) ->
    List.iter
      (fun (vb : Typedtree.value_binding) ->
        let t =
          Suppress.guard st.sink ~file:ctx.file
            ~fallback:vb.vb_loc.loc_start.pos_lnum vb.vb_attributes
            (fun () -> eval st ctx env vb.vb_expr)
        in
        bind_pat env vb.vb_pat t)
      vbs;
    eval st ctx env body
  | Texp_sequence (a, b) ->
    ignore (eval st ctx env a);
    eval st ctx env b
  | Texp_ifthenelse (c, t, e_opt) -> (
    ignore (eval st ctx env c);
    let tt = eval st ctx env t in
    match e_opt with
    | Some e2 -> join tt (eval st ctx env e2)
    | None -> tt)
  | Texp_match (scrut, cases, _) ->
    let ts = eval st ctx env scrut in
    List.fold_left
      (fun acc (c : Typedtree.computation Typedtree.case) ->
        bind_pat env c.c_lhs ts;
        Option.iter (fun g -> ignore (eval st ctx env g)) c.c_guard;
        let t = eval st ctx env c.c_rhs in
        match acc with None -> Some t | Some a -> Some (join a t))
      None cases
    |> Option.value ~default:Top
  | Texp_function { cases; _ } ->
    List.iter
      (fun (c : Typedtree.value Typedtree.case) ->
        Option.iter (fun g -> ignore (eval st ctx env g)) c.c_guard;
        ignore (eval st ctx env c.c_rhs))
      cases;
    Top
  | Texp_tuple es -> Tuple (List.map (eval st ctx env) es)
  | Texp_open (_, body) -> eval st ctx env body
  | _ ->
    (* everything else: check the children, degrade to untracked *)
    Defs.children (fun e -> ignore (eval st ctx env e)) e;
    Top

and ident_taint st ctx env p (vd : Types.value_description) =
  let local =
    match p with
    | Path.Pident id -> Hashtbl.find_opt env (Ident.unique_name id)
    | _ -> None
  in
  match local with
  | Some t -> t
  | None -> (
    let name = Cmt_scan.normalize_path st.defs.Defs.aliases p in
    match Defs.resolve st.defs ~modpath:ctx.modpath name with
    | Some d -> (
      match summarize st d with
      | { s_params = 0; s_taint } -> s_taint
      | _ -> Top (* a function used as a value *))
    | None -> (
      (* [vd.val_type] is the declaration's type, which still names the
         carrier even under a [(x :> float)] coercion on this use *)
      match Unit_api.type_dim st.defs ~modpath:ctx.modpath vd.val_type with
      | Some d -> Dim d
      | None -> Top))

and eval_apply st ctx env fn p args =
  let name = Cmt_scan.normalize_path st.defs.Defs.aliases p in
  let modpath = ctx.modpath in
  let line = fn.exp_loc.loc_start.pos_lnum in
  let arg_taints =
    List.map
      (fun ((lbl : Asttypes.arg_label), a) ->
        (lbl, Option.map (fun a -> eval st ctx env a) a))
      args
  in
  let positional =
    List.filter_map
      (function Asttypes.Nolabel, Some t -> Some t | _ -> None)
      arg_taints
  in
  let all_positional =
    List.for_all (fun (lbl, _) -> lbl = Asttypes.Nolabel) arg_taints
  in
  match Unit_api.ctor_dim st.api st.defs ~modpath name with
  | Some d ->
    (match positional with
    | [ t ] when all_positional -> (
      match base_of t with
      | Some d' when not (Dim.equal d d') ->
        finding st ~rule:"unit-rewrap" ~file:ctx.file ~line
          (Printf.sprintf
             "%s wraps a float carrying %s as %s; convert through the \
              typed Units API instead of rewrapping, or annotate the \
              argument [@unit_ok \"why\"]"
             name (Dim.describe d') (Dim.describe d))
      | _ -> ())
    | _ -> ());
    Dim d
  | None -> (
    match Unit_api.accessor_dim st.api st.defs ~modpath name with
    | Some d -> Dim d
    | None ->
      if Unit_api.is_conv st.api st.defs ~modpath name then Top
      else (
        match Hashtbl.find_opt op_table name with
        | Some op -> eval_op st ctx ~name ~line op positional all_positional
        | None -> (
          (* locally-resolvable callee: substitute argument taints into
             its memoized parameter summary *)
          match Defs.resolve st.defs ~modpath name with
          | Some d when all_positional ->
            let s = summarize st d in
            if s.s_params > 0 && s.s_params = List.length positional then
              subst (Array.of_list positional) s.s_taint
            else Top
          | _ -> Top)))

and eval_op st ctx ~name ~line op positional all_positional =
  let binary f =
    match positional with
    | [ a; b ] when all_positional -> f a b
    | _ -> Top (* partial application or labelled arguments *)
  in
  let mix_check a b keep =
    match (base_of a, base_of b) with
    | Some da, Some db when not (Dim.equal da db) ->
      finding st ~rule:"unit-mix" ~file:ctx.file ~line
        (Printf.sprintf
           "operands of %s mix %s with %s; stay inside the typed Units \
            API, convert explicitly, or annotate the expression [@unit_ok \
            \"why\"]"
           name (Dim.describe da) (Dim.describe db));
      Top
    | _ -> keep a b
  in
  match op with
  | Additive ->
    binary (fun a b ->
        mix_check a b (fun a b ->
            match (a, b) with
            | Dim Dim.Scalar, t | t, Dim Dim.Scalar -> t
            | Dim da, Dim db when Dim.equal da db -> Dim da
            | Param i, Param j when i = j -> Param i
            | _ -> Top))
  | Compare -> binary (fun a b -> mix_check a b (fun _ _ -> Dim Dim.Scalar))
  | Mul ->
    binary (fun a b ->
        match (a, b) with
        | Dim Dim.Scalar, t | t, Dim Dim.Scalar -> t
        | _ -> Top (* dimensioned products leave the lattice, no finding *))
  | Div ->
    binary (fun a b ->
        match (a, b) with
        | t, Dim Dim.Scalar -> t
        | Dim da, Dim db when Dim.is_base da && Dim.equal da db ->
          Dim Dim.Scalar
        | _ -> Top)
  | Preserve -> (
    match positional with [ t ] when all_positional -> t | _ -> Top)
  | To_scalar -> Dim Dim.Scalar

(* Result taint of a definition as a function of its parameters, computed
   with findings discarded (the definition's own findings are emitted once,
   by its direct check).  Cycles summarize to untracked. *)
and summarize st d =
  Defs.memo st.summaries ~cycle:{ s_params = 0; s_taint = Top }
    (fun d ->
      let env = Hashtbl.create 8 in
      let params, body = strip_params env 0 d.Defs.d_expr in
      let ctx = { file = d.Defs.d_source; modpath = d.Defs.d_modpath } in
      let t, _ = Suppress.trial st.sink (fun () -> eval st ctx env body) in
      { s_params = params; s_taint = t })
    d

(* --- entry point ------------------------------------------------------------ *)

type result = {
  findings : Finding.t list;
  checked : int;  (* module-level definitions the dataflow evaluated *)
}

let check ~sup ~scope (api : Unit_api.t) (defs : Defs.t) =
  let st =
    { defs; api; sink = Suppress.sink sup ~attr:"unit_ok";
      summaries = Hashtbl.create 256 }
  in
  let scoped = Defs.in_libs scope defs in
  let (), findings =
    Suppress.trial st.sink (fun () ->
        List.iter
          (fun (d : Defs.vdef) ->
            let ctx = { file = d.d_source; modpath = d.d_modpath } in
            let env = Hashtbl.create 16 in
            let _, body = strip_params env 0 d.d_expr in
            Suppress.guard st.sink ~file:d.d_source ~fallback:d.d_line
              d.d_attrs (fun () -> ignore (eval st ctx env body)))
          scoped)
  in
  { findings; checked = List.length scoped }
