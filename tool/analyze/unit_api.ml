(* Dimension registry for the units pass.

   Three name tables drive the dataflow: [accessors] (calls that strip a
   lib/units carrier down to a raw float, tainting the result with the
   carrier's dimension), [ctors] (calls that wrap a raw float back into a
   carrier, where a taint of a *different* dimension is a unit-rewrap), and
   [convs] (declared conversion helpers whose results legitimately change
   dimension and therefore leave the analysis untracked).

   The four in-tree carriers are built in under both their canonical
   ([Units__Time.to_secs]) and unscanned-library ([Units.Time.to_secs])
   spellings.  On top of that, any scanned definition may declare itself
   with a registry attribute — [@@unit_accessor "time"],
   [@@unit_ctor "rate"], [@@unit_conv "why"] — which is how the fixture
   libraries carry their own miniature carriers and how future helper
   modules join the registry without touching this table. *)

type t = {
  accessors : (string, Dim.t) Hashtbl.t;
  ctors : (string, Dim.t) Hashtbl.t;
  convs : (string, unit) Hashtbl.t;
}

(* --- builtins --------------------------------------------------------------- *)

let carriers =
  [
    ( "Time",
      Dim.Time,
      [ "secs"; "ms"; "us"; "of_float" ],
      [ "to_secs"; "to_ms"; "to_float" ] );
    ( "Rate",
      Dim.Rate,
      [ "bps"; "mbps"; "gbps"; "bps_exn"; "of_float" ],
      [ "to_bps"; "to_mbps"; "to_float" ] );
    ("Freq", Dim.Freq, [ "hz"; "of_float" ], [ "to_hz"; "to_float" ]);
    ( "Bytes",
      Dim.Bytes,
      [ "bytes"; "of_bits"; "of_float" ],
      [ "to_float"; "to_bits" ] );
  ]

(* the typed cross-unit operators encode their dimensional identities in
   their signatures; they only appear here so a [@unit_conv]-style lookup
   of a registry name never falls through to "unknown call" heuristics *)
let builtin_convs =
  [ "Rate.volume"; "Rate.tx_time"; "Freq.period" ]

let spellings modname fn =
  [ "Units__" ^ modname ^ "." ^ fn; "Units." ^ modname ^ "." ^ fn ]

(* --- construction ----------------------------------------------------------- *)

let create (defs : Defs.t) =
  let t =
    {
      accessors = Hashtbl.create 64;
      ctors = Hashtbl.create 64;
      convs = Hashtbl.create 16;
    }
  in
  List.iter
    (fun (m, dim, ctors, accessors) ->
      List.iter
        (fun fn ->
          List.iter (fun s -> Hashtbl.replace t.ctors s dim) (spellings m fn))
        ctors;
      List.iter
        (fun fn ->
          List.iter
            (fun s -> Hashtbl.replace t.accessors s dim)
            (spellings m fn))
        accessors)
    carriers;
  List.iter
    (fun fn ->
      Hashtbl.replace t.convs ("Units__" ^ fn) ();
      Hashtbl.replace t.convs ("Units." ^ fn) ())
    builtin_convs;
  (* attribute-declared registry entries out of the scanned definitions *)
  let findings = ref [] in
  let bad (d : Defs.vdef) attr =
    findings :=
      Finding.v ~pass_:"units" ~rule:"unit-bad-registry" ~file:d.Defs.d_source
        ~line:d.Defs.d_line
        (Printf.sprintf
           "[@@%s] on %s needs a dimension payload out of \
            time/rate/freq/bytes/scalar"
           attr d.Defs.d_key)
      :: !findings
  in
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) defs.Defs.defs [] in
  List.iter
    (fun key ->
      let d = Hashtbl.find defs.Defs.defs key in
      (match Defs.find_attr "unit_accessor" d.Defs.d_attrs with
      | Some a -> (
        match Option.bind (Defs.attr_reason a) Dim.of_string with
        | Some dim -> Hashtbl.replace t.accessors d.Defs.d_key dim
        | None -> bad d "unit_accessor")
      | None -> ());
      (match Defs.find_attr "unit_ctor" d.Defs.d_attrs with
      | Some a -> (
        match Option.bind (Defs.attr_reason a) Dim.of_string with
        | Some dim -> Hashtbl.replace t.ctors d.Defs.d_key dim
        | None -> bad d "unit_ctor")
      | None -> ());
      if Defs.has_attr "unit_conv" d.Defs.d_attrs then
        Hashtbl.replace t.convs d.Defs.d_key ())
    (List.sort String.compare keys);
  (t, List.rev !findings)

(* --- lookup ----------------------------------------------------------------- *)

(* Resolve [name] as written at a call site inside [modpath] against one of
   the tables: try the raw spelling, the enclosing-scope-qualified and
   module-alias-expanded spellings (so [module T = Units.Time; T.secs …]
   still matches), and finally full value resolution back to a canonical
   definition key.  Mirrors {!Race.entry_of}. *)
let lookup tbl (defs : Defs.t) ~modpath name =
  let candidates =
    name :: List.map (fun s -> s ^ "." ^ name) (Defs.scopes_of modpath)
  in
  let rec go = function
    | [] -> (
      match Defs.resolve defs ~modpath name with
      | Some d -> Hashtbl.find_opt tbl d.Defs.d_key
      | None -> None)
    | c :: rest -> (
      match Hashtbl.find_opt tbl c with
      | Some v -> Some v
      | None -> (
        match Hashtbl.find_opt tbl (Defs.expand_aliases defs 5 c) with
        | Some v -> Some v
        | None -> go rest))
  in
  go candidates

let accessor_dim t defs ~modpath name = lookup t.accessors defs ~modpath name

let ctor_dim t defs ~modpath name = lookup t.ctors defs ~modpath name

let is_conv t defs ~modpath name =
  lookup t.convs defs ~modpath name |> Option.is_some

(* the carrier types themselves, for type-directed tainting of values that
   reach a raw-float context through a coercion *)
let type_dim (defs : Defs.t) ~modpath (ty : Types.type_expr) =
  match Types.get_desc ty with
  | Tconstr (p, _, _) -> (
    let name = Cmt_scan.normalize_name defs.Defs.aliases (Path.name p) in
    let direct = function
      | "Units__Time.t" | "Units.Time.t" -> Some Dim.Time
      | "Units__Rate.t" | "Units.Rate.t" -> Some Dim.Rate
      | "Units__Freq.t" | "Units.Freq.t" -> Some Dim.Freq
      | "Units__Bytes.t" | "Units.Bytes.t" -> Some Dim.Bytes
      | _ -> None
    in
    match direct name with
    | Some d -> Some d
    | None -> (
      match direct (Defs.expand_aliases defs 5 name) with
      | Some d -> Some d
      | None -> (
        (* [module Time = Units.Time] makes call-site types print as
           Time.t; resolve the declaration back to its canonical key *)
        match Defs.resolve_type defs ~modpath name with
        | Some td -> direct td.Defs.t_key
        | None -> None)))
  | _ -> None
