(** The finding record shared by every analysis pass. *)

type t = {
  pass_ : string;  (** producing pass: parsetree / determinism / layering / alloc *)
  rule : string;  (** stable machine-readable rule id *)
  file : string;
  line : int;
  message : string;
}

val v : pass_:string -> rule:string -> file:string -> line:int -> string -> t

val compare : t -> t -> int
(** Order by file, line, rule, message — the report order. *)

val pp : Format.formatter -> t -> unit

val json_escape : string -> string

val to_json : t -> string
(** One JSONL object per finding. *)
