(** The suppression protocol shared by the determinism, alloc, race, and
    units passes: each pass emits its findings through a {!sink}, and every
    [@det_ok]/[@alloc_ok]/[@shared_ok]/[@unit_ok] it meets goes through
    {!guard}, which records which escapes were visited and which actually
    suppressed a finding, and reports one without a reason string. *)

type tracker

val create : unit -> tracker

(** A pass's findings sink, bound to the escape-hatch attribute that pass
    honours.  Findings emitted outside {!trial} are dropped. *)
type sink

(** [sink t ~attr] — [attr] is one of {!suppression_attrs}. *)
val sink : tracker -> attr:string -> sink

val emit : sink -> Finding.t -> unit

(** [trial s f] runs [f] and returns, instead of reporting them, the
    findings it emitted, in emission order. *)
val trial : sink -> (unit -> 'a) -> 'a * Finding.t list

(** [guard s ~file ~fallback attrs f] is [f ()] when [attrs] carries no
    suppression of [s]'s attribute.  Otherwise it runs [f] under
    {!trial}, discards what [f] found, records the suppression as
    visited (and used iff [f] found something), and emits a
    [*-bare-suppression] finding if the attribute has no reason string.
    [fallback] is the line of the carrying node, for ghost locations. *)
val guard :
  sink -> file:string -> fallback:int -> Parsetree.attributes ->
  (unit -> 'a) -> 'a

(** Visited suppressions that suppressed nothing, as findings
    (pass ["suppress"], rule ["suppress-stale"]). *)
val stale : tracker -> Finding.t list

(** The escape-hatch attribute names, in display order. *)
val suppression_attrs : string list

(** One suppression attribute found in the scanned units (for the
    [--suppressions] audit listing). *)
type listed = {
  l_attr : string;
  l_file : string;
  l_line : int;
  l_reason : string option;
}

(** Every suppression attribute in the scanned units, sorted and deduped. *)
val collect : Cmt_scan.unit_info list -> listed list

type status = Used | Stale | Unvisited

val status : tracker -> listed -> status

val status_string : status -> string
