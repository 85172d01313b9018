(* unit-raw-boundary: the typedtree-level completion of PR 1's parsetree
   lint.  A module-level function in the unit-bearing libraries that takes
   a raw [float] parameter whose every use is immediately wrapping it in a
   single dimension's constructor — or returns a raw [float] that every
   tail of the body produces by unwrapping a single dimension — should
   move the carrier type into its signature instead: the raw float crosses
   the API boundary unprotected for no reason.

   Mixed uses (the parameter also feeds plain arithmetic, tails of several
   dimensions, …) are not findings; the function genuinely works on raw
   floats and the dataflow pass polices what it does with them.  Escapes
   are binding-level [@unit_ok "why"] attributes with staleness
   accounting. *)

let default_scope =
  [ "nimbus_core"; "nimbus_cc"; "nimbus_sim"; "nimbus_topology";
    "nimbus_dsp" ]

type state = { defs : Defs.t; api : Unit_api.t; sink : Suppress.sink }

let finding st ~file ~line message =
  Suppress.emit st.sink
    (Finding.v ~pass_:"units" ~rule:"unit-raw-boundary" ~file ~line message)

let is_float_ty (ty : Types.type_expr) =
  match Types.get_desc ty with
  | Tconstr (p, [], _) -> Path.same p Predef.path_float
  | _ -> false

(* the curried parameters of a definition, plus the body left after them *)
let rec params_of acc (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_function { cases = [ c ]; _ } -> (
    match c.c_lhs.pat_desc with
    | Tpat_var (id, _) | Tpat_alias (_, id, _) ->
      params_of ((id, c.c_lhs) :: acc) c.c_rhs
    | _ -> params_of acc c.c_rhs)
  | _ -> (List.rev acc, e)

(* --- parameter direction ---------------------------------------------------- *)

(* Every use of [id] in [body] that is the sole bare argument of a
   registered constructor counts as wrapped (with its dimension); any other
   occurrence is a raw use that disqualifies the parameter. *)
let param_uses st ~modpath id body =
  let wrapped = ref [] and raw = ref 0 in
  let expr self (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_apply
        ( { exp_desc = Texp_ident (p, _, _); _ },
          [ (Asttypes.Nolabel,
             Some { exp_desc = Texp_ident (Path.Pident id', _, _); _ })
          ] )
      when Ident.same id' id -> (
      let name = Cmt_scan.normalize_path st.defs.Defs.aliases p in
      match Unit_api.ctor_dim st.api st.defs ~modpath name with
      | Some d -> wrapped := d :: !wrapped
      | None -> incr raw)
    | Texp_ident (Path.Pident id', _, _) when Ident.same id' id -> incr raw
    | _ -> Tast_iterator.default_iterator.expr self e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.expr it body;
  (!wrapped, !raw)

(* --- return direction ------------------------------------------------------- *)

let rec tails (e : Typedtree.expression) acc =
  match e.exp_desc with
  | Texp_let (_, _, b) -> tails b acc
  | Texp_sequence (_, b) -> tails b acc
  | Texp_open (_, b) -> tails b acc
  | Texp_ifthenelse (_, t, Some e2) -> tails t (tails e2 acc)
  | Texp_match (_, cases, _) ->
    List.fold_left
      (fun acc (c : Typedtree.computation Typedtree.case) ->
        tails c.c_rhs acc)
      acc cases
  | _ -> e :: acc

let tail_unwrap_dim st ~modpath (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _) ->
    Unit_api.accessor_dim st.api st.defs ~modpath
      (Cmt_scan.normalize_path st.defs.Defs.aliases p)
  | _ -> None

let single_dim = function
  | [] -> None
  | d :: rest -> if List.for_all (Dim.equal d) rest then Some d else None

(* --- per-definition check --------------------------------------------------- *)

let check_def st (d : Defs.vdef) =
  let modpath = d.Defs.d_modpath in
  let params, body = params_of [] d.Defs.d_expr in
  if params = [] then ()
  else begin
    List.iter
      (fun ((id : Ident.t), (pat : Typedtree.pattern)) ->
        if is_float_ty pat.pat_type then
          let wrapped, raw = param_uses st ~modpath id body in
          if raw = 0 && wrapped <> [] then
            match single_dim wrapped with
            | Some dim ->
              finding st ~file:d.Defs.d_source
                ~line:pat.pat_loc.loc_start.pos_lnum
                (Printf.sprintf
                   "%s takes raw float %s only to wrap it as %s; take %s \
                    in the signature instead, or annotate the binding \
                    [@unit_ok \"why\"]"
                   d.Defs.d_key (Ident.name id) (Dim.describe dim)
                   (Dim.carrier dim))
            | None -> ())
      params;
    if is_float_ty body.exp_type then
      let dims =
        List.map (tail_unwrap_dim st ~modpath) (tails body [])
      in
      if List.for_all Option.is_some dims then
        match single_dim (List.filter_map Fun.id dims) with
        | Some dim ->
          finding st ~file:d.Defs.d_source ~line:d.Defs.d_line
            (Printf.sprintf
               "%s returns a raw float it produces by unwrapping %s; \
                return %s instead, or annotate the binding [@unit_ok \
                \"why\"]"
               d.Defs.d_key (Dim.describe dim) (Dim.carrier dim))
        | None -> ()
  end

(* --- entry point ------------------------------------------------------------ *)

let check ~sup ~scope (api : Unit_api.t) (defs : Defs.t) =
  let st = { defs; api; sink = Suppress.sink sup ~attr:"unit_ok" } in
  snd
    (Suppress.trial st.sink (fun () ->
         List.iter
           (fun (d : Defs.vdef) ->
             Suppress.guard st.sink ~file:d.d_source ~fallback:d.d_line
               d.d_attrs (fun () -> check_def st d))
           (Defs.in_libs scope defs)))
