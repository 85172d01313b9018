(* Allocation pass.

   Functions annotated [@@alloc_free] must not heap-allocate: the checker
   walks their typedtree bodies flagging allocating constructs — closures,
   tuples, non-constant constructors, records, array literals, lazy values,
   escaping refs, partial applications — and resolves statically-known
   callees: a call to another function whose definition is in the scanned
   cmt set is analyzed recursively (memoized, cycle-safe); a call to a
   function annotated [@@alloc_free] is trusted; calls to a small whitelist
   of non-allocating stdlib primitives are allowed; anything else is
   flagged.  [@alloc_ok "why"] on an expression exempts that subtree, and on
   a binding it exempts every call to that binding; both go through
   {!Suppress.guard}.

   Two deliberate blind spots, documented in DESIGN.md §13: float/int64
   boxing at non-inlined call boundaries is invisible in the typedtree (the
   PR 2 dynamic minor-words slope tests remain the ground truth for that),
   and local refs are allowed when used only through !/:=/incr/decr because
   the compiler compiles non-escaping refs to mutable stack slots.

   Calls to raising entry points (invalid_arg, failwith, raise) are treated
   as cold: their argument expressions (typically Printf.sprintf) are not
   checked, since they only run on the error path. *)

(* --- callee classification ------------------------------------------------- *)

let cold_raisers = [ "invalid_arg"; "failwith"; "raise"; "raise_notrace" ]

let ref_ops = [ "!"; ":="; "incr"; "decr" ]

let whitelist =
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun n -> Hashtbl.replace tbl n ())
    [
      (* integer / boolean / polymorphic primitives *)
      "+"; "-"; "*"; "/"; "mod"; "land"; "lor"; "lxor"; "lnot"; "lsl"; "lsr";
      "asr";
      "abs"; "succ"; "pred"; "min"; "max"; "="; "<"; ">"; "<="; ">="; "<>";
      "=="; "!="; "compare"; "not"; "&&"; "||"; "&"; "or"; "ignore"; "fst";
      "snd"; "~-"; "~+";
      (* float primitives (results may be boxed at call boundaries; boxing
         is out of scope here, see above) *)
      "+."; "-."; "*."; "/."; "~-."; "~+."; "**"; "sqrt"; "exp"; "log";
      "log10"; "log1p"; "expm1"; "cos"; "sin"; "tan"; "acos"; "asin"; "atan";
      "atan2"; "cosh"; "sinh"; "tanh"; "ceil"; "floor"; "abs_float";
      "mod_float"; "copysign"; "ldexp"; "classify_float"; "float_of_int";
      "int_of_float"; "truncate"; "char_of_int"; "int_of_char";
      "Sys.opaque_identity";
      (* in-place array/bytes/string access *)
      "Array.length"; "Array.get"; "Array.set"; "Array.unsafe_get";
      "Array.unsafe_set"; "Array.fill"; "Array.blit"; "Array.unsafe_blit";
      "Bytes.length"; "Bytes.get"; "Bytes.set"; "Bytes.unsafe_get";
      "Bytes.unsafe_set"; "Bytes.fill"; "Bytes.blit"; "Bytes.unsafe_blit";
      "Bytes.get_int64_ne"; "Bytes.set_int64_ne"; "Float.Array.length";
      "Float.Array.get"; "Float.Array.set"; "Float.Array.unsafe_get";
      "Float.Array.unsafe_set";
      "String.length"; "String.get"; "String.unsafe_get";
      (* scalar module functions *)
      "Char.code"; "Char.chr"; "Char.unsafe_chr"; "Int.min"; "Int.max";
      "Int.abs"; "Int.equal"; "Int.compare"; "Int.succ"; "Int.pred";
      "Float.equal"; "Float.compare"; "Float.hypot"; "Float.abs";
      "Float.min"; "Float.max"; "Float.min_num"; "Float.max_num";
      "Float.is_finite"; "Float.is_nan"; "Float.is_integer"; "Float.of_int";
      "Float.to_int"; "Float.round"; "Float.trunc"; "Float.rem";
      "Float.succ"; "Float.pred"; "Float.sign_bit"; "Float.copy_sign";
      "Float.fma"; "Option.value"; "Option.is_some"; "Option.is_none";
      "Bool.not"; "Bool.equal"; "Bool.compare";
    ];
  tbl

let allocating_exact =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun n -> Hashtbl.replace tbl n ())
    [ "^"; "@"; "string_of_int"; "string_of_float"; "string_of_bool";
      "float_of_string"; "int_of_string"; "frexp"; "modf"; "Sys.time" ];
  tbl

let allocating_prefixes =
  [
    "List."; "Printf."; "Format."; "Buffer."; "Int64."; "Int32.";
    "Nativeint."; "Seq."; "Queue."; "Stack."; "Hashtbl."; "Map."; "Set.";
    "Result."; "Either."; "Lazy."; "Array."; "String."; "Bytes.";
    "Option."; "Digest."; "Scanf."; "Marshal.";
  ]

let is_known_allocating name =
  Hashtbl.mem allocating_exact name
  || List.exists
       (fun p ->
         String.length name > String.length p
         && String.sub name 0 (String.length p) = p)
       allocating_prefixes

(* --- the checker ----------------------------------------------------------- *)

(* definition collection and name resolution live in {!Defs}, shared with
   the race pass *)

type state = {
  tables : Defs.t;
  sink : Suppress.sink;
  verdicts : (string, Finding.t list option) Hashtbl.t;
}

let finding ~rule ~source (e : Typedtree.expression) message =
  Finding.v ~pass_:"alloc" ~rule ~file:source
    ~line:e.exp_loc.loc_start.pos_lnum message

let rec verdict st d =
  Defs.memo st.verdicts ~cycle:[]
    (fun d -> snd (Suppress.trial st.sink (fun () -> check_def st d)))
    d

and check_def st (d : Defs.vdef) =
  let local_refs = Hashtbl.create 8 in
  let add = Suppress.emit st.sink in
  let source = d.d_source in
  let rec visit (e : Typedtree.expression) =
    Suppress.guard st.sink ~file:source ~fallback:e.exp_loc.loc_start.pos_lnum
      e.exp_attributes (fun () -> visit_core e)
  and visit_core (e : Typedtree.expression) =
    match e.exp_desc with
      | Texp_apply (fn, args) -> visit_apply e fn args
      | Texp_let (Nonrecursive, vbs, body) ->
        (* [let x = ref e in ...] (also [let a = ref _ and b = ref _]):
           allowed as long as the ref never escapes (used only through
           ! / := / incr / decr), matching the compiler's
           mutable-stack-slot optimization for local refs *)
        List.iter
          (fun (vb : Typedtree.value_binding) ->
            match vb with
            | {
             vb_pat = { pat_desc = Tpat_var (id, _); _ };
             vb_expr =
               {
                 exp_desc =
                   Texp_apply
                     ( { exp_desc = Texp_ident (rp, _, _); _ },
                       [ (_, Some init) ] );
                 _;
               };
             _;
            }
              when String.equal
                     (Cmt_scan.normalize_path st.tables.aliases rp)
                     "ref" ->
              visit init;
              Hashtbl.replace local_refs (Ident.unique_name id) ()
            | _ -> visit vb.vb_expr)
          vbs;
        visit body
      | Texp_ident (Path.Pident id, _, _)
        when Hashtbl.mem local_refs (Ident.unique_name id) ->
        add
          (finding ~rule:"alloc-ref-escape" ~source e
             (Printf.sprintf
                "local ref %s escapes (used other than through !/:=); it \
                 will be heap-allocated"
                (Ident.name id)))
      | Texp_function _ ->
        add
          (finding ~rule:"alloc-closure" ~source e
             "closure allocation inside an [@@alloc_free] body; hoist the \
              function to the top level")
      | Texp_tuple _ ->
        add (finding ~rule:"alloc-tuple" ~source e "tuple allocation");
        descend e
      | Texp_construct (_, cd, args) -> (
        match (cd.cstr_tag, args) with
        | _, [] -> descend e
        | Types.Cstr_unboxed, _ -> descend e
        | _ ->
          add
            (finding ~rule:"alloc-construct" ~source e
               (Printf.sprintf "constructor %s allocates a block"
                  cd.cstr_name));
          descend e)
      | Texp_variant (_, Some _) ->
        add
          (finding ~rule:"alloc-construct" ~source e
             "polymorphic variant with argument allocates");
        descend e
      | Texp_record { representation = Types.Record_unboxed _; _ } ->
        descend e
      | Texp_record _ ->
        add (finding ~rule:"alloc-record" ~source e "record allocation");
        descend e
      | Texp_array [] -> ()
      | Texp_array _ ->
        add (finding ~rule:"alloc-array" ~source e "array literal allocation");
        descend e
      | Texp_lazy _ ->
        add (finding ~rule:"alloc-lazy" ~source e "lazy value allocation");
        descend e
      | Texp_object _ | Texp_new _ | Texp_pack _ | Texp_letop _ ->
        add
          (finding ~rule:"alloc-other" ~source e
             "allocating construct (object/first-class module/letop)")
      | _ -> descend e
  and descend e = Defs.children visit e
  and visit_args args =
    List.iter (function _, Some a -> visit a | _, None -> ()) args
  and visit_apply e fn args =
    if List.exists (fun (_, a) -> a = None) args then
      add
        (finding ~rule:"alloc-partial-app" ~source e
           "partial application allocates a closure");
    match fn.exp_desc with
    | Texp_ident (_, _, { val_kind = Types.Val_prim { prim_name; _ }; _ })
      when String.equal prim_name "%identity" ->
      (* an identity primitive ([Units.Time.secs]...) compiles to nothing *)
      visit_args args
    | Texp_ident (p, _, _) -> (
      let name = Cmt_scan.normalize_path st.tables.aliases p in
      if List.mem name ref_ops then
        match args with
        | (_, Some { exp_desc = Texp_ident (Path.Pident id, _, _); _ }) :: rest
          when Hashtbl.mem local_refs (Ident.unique_name id) ->
          visit_args rest
        | _ -> visit_args args
      else if List.mem name cold_raisers then
        (* cold path: the raise only runs on errors, so its message
           construction is exempt *)
        ()
      else if String.equal name "ref" then begin
        add
          (finding ~rule:"alloc-ref" ~source e
             "ref allocation (escaping or non-local ref)");
        visit_args args
      end
      else if Hashtbl.mem whitelist name then visit_args args
      else begin
        (match Defs.resolve st.tables ~modpath:d.d_modpath name with
        | Some callee when Defs.has_attr "alloc_free" callee.d_attrs -> ()
        | Some callee ->
          (* a binding-level [@@alloc_ok] on the callee suppresses what its
             body would report here *)
          Suppress.guard st.sink ~file:callee.d_source ~fallback:callee.d_line
            callee.d_attrs (fun () ->
              match verdict st callee with
              | [] -> ()
              | f0 :: _ ->
                add
                  (finding ~rule:"alloc-callee" ~source e
                     (Printf.sprintf
                        "callee %s allocates (%s:%d [%s] %s); annotate it \
                         [@@alloc_free] once fixed"
                        callee.d_key f0.Finding.file f0.Finding.line
                        f0.Finding.rule f0.Finding.message)))
        | None ->
          if is_known_allocating name then
            add
              (finding ~rule:"alloc-call" ~source e
                 (Printf.sprintf "%s allocates" name))
          else
            add
              (finding ~rule:"alloc-unknown-call" ~source e
                 (Printf.sprintf
                    "call to %s is not known to be allocation-free; \
                     annotate it [@@alloc_free], or wrap the call in \
                     [@alloc_ok] if the allocation is intended"
                    name)));
        visit_args args
      end)
    | _ ->
      add
        (finding ~rule:"alloc-indirect-call" ~source e
           "indirect call through a closure value; the target cannot be \
            checked statically");
      visit fn;
      visit_args args
  (* Strip the curried-parameter chain: the outermost Texp_function nodes
     are the annotated function itself, not closure allocations.  An
     optional argument with a default desugars to
     [fun *opt* -> let x = match *opt* ... in fun ...]; the interposed let
     is still part of the parameter chain (its default expression runs per
     call, so it is visited), and stripping continues below it. *)
  and analyze_fn ~after_opt (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_function { cases = [ c ]; _ } ->
      Option.iter visit c.c_guard;
      let opt_param =
        match c.c_lhs.pat_desc with
        | Tpat_var (id, _) ->
          let n = Ident.name id in
          String.length n >= 5 && String.sub n 0 5 = "*opt*"
        | _ -> false
      in
      analyze_fn ~after_opt:opt_param c.c_rhs
    | Texp_function { cases; _ } ->
      List.iter
        (fun (c : Typedtree.value Typedtree.case) ->
          Option.iter visit c.c_guard;
          visit c.c_rhs)
        cases
    | Texp_let (Nonrecursive, vbs, body) when after_opt ->
      List.iter (fun (vb : Typedtree.value_binding) -> visit vb.vb_expr) vbs;
      analyze_fn ~after_opt:false body
    | _ -> visit e
  in
  analyze_fn ~after_opt:false d.d_expr

(* --- entry point ----------------------------------------------------------- *)

type result = {
  findings : Finding.t list;
  verified : string list;  (* [@@alloc_free] definitions that checked clean *)
}

let check ~sup (tables : Defs.t) =
  let st =
    { tables; sink = Suppress.sink sup ~attr:"alloc_ok";
      verdicts = Hashtbl.create 64 }
  in
  let verified, failed =
    List.partition
      (fun d -> verdict st d = [])
      (Defs.annotated "alloc_free" tables)
  in
  { findings = List.concat_map (verdict st) failed;
    verified = List.map (fun (d : Defs.vdef) -> d.d_key) verified }
