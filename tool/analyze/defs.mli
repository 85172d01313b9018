(** Shared definition/type-declaration tables, name resolution and pass
    plumbing for the typedtree passes.  Collected once per driver run from
    the scanned cmt units. *)

(** One module-level value binding. *)
type vdef = {
  d_key : string;  (** "Modpath.name", e.g. "Nimbus_sim__Rng.split" *)
  d_expr : Typedtree.expression;
  d_attrs : Parsetree.attributes;
  d_source : string;
  d_modpath : string;
  d_line : int;
}

(** One type declaration, kept structurally so the race pass can classify
    types without reconstructing compiler environments. *)
type tdecl = {
  t_key : string;  (** "Modpath.name", e.g. "Nimbus_sim__Rng.t" *)
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
  mod_aliases : (string, string) Hashtbl.t;
  aliases : (string, unit) Hashtbl.t;
  module_level : (string, unit) Hashtbl.t;
}

(** [has_attr name attrs] is true iff an attribute named [name] is present. *)
val has_attr : string -> Parsetree.attributes -> bool

(** [find_attr name attrs] returns the attribute named [name], if present. *)
val find_attr : string -> Parsetree.attributes -> Parsetree.attribute option

(** [attr_reason a] extracts the conventional [@attr "reason"] string
    payload, if the attribute carries one. *)
val attr_reason : Parsetree.attribute -> string option

(** The name a value binding binds, seeing through the alias wrapper a
    [let x : t = e] constraint introduces. *)
val binding_name : Typedtree.pattern -> string option

(** [collect aliases units] builds the tables from every scanned unit. *)
val collect : (string, unit) Hashtbl.t -> Cmt_scan.unit_info list -> t

(** Enclosing scopes of a module path, innermost first — used to resolve an
    unqualified name from inside a (possibly nested) module. *)
val scopes_of : string -> string list

(** [expand_aliases t fuel name] rewrites leading module-alias prefixes
    ([module X = Y]) to their targets, at most [fuel] times. *)
val expand_aliases : t -> int -> string -> string

(** [resolve t ~modpath name] finds the value definition [name] refers to
    from inside module [modpath], trying enclosing scopes innermost-first
    and seeing through module aliases. *)
val resolve : t -> modpath:string -> string -> vdef option

(** [resolve_type t ~modpath name] — like {!resolve}, for type declarations. *)
val resolve_type : t -> modpath:string -> string -> tdecl option

(** [is_module_level t id] is true iff [id] is a module-level value ident of
    some scanned unit (as opposed to a function-local binding). *)
val is_module_level : t -> Ident.t -> bool

(** The libraries reachable from an engine run (sim, topology, core, dsp,
    faults): the determinism pass's scope and the race pass's
    mutable-global sweep. *)
val sim_libs : string list

(** [annotated attr t] — the definitions carrying [[@@attr]], by key. *)
val annotated : string -> t -> vdef list

(** [in_libs libs t] — the definitions owned by one of [libs], by
    source file, line, then key. *)
val in_libs : string list -> t -> vdef list

(** [children f e] applies [f] to each direct sub-expression of [e]. *)
val children : (Typedtree.expression -> unit) -> Typedtree.expression -> unit

(** [memo tbl ~cycle f d] is [f d], computed once per definition key and
    kept in [tbl]; a definition reached again while its own [f] is still
    running gets [cycle] ([None] in [tbl] marks it). *)
val memo :
  (string, 'a option) Hashtbl.t -> cycle:'a -> (vdef -> 'a) -> vdef -> 'a
