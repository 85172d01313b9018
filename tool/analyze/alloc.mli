(** Allocation pass: verify [@@alloc_free] function bodies never heap-allocate.

    Escape hatches: [@alloc_ok "why"] on an expression exempts that
    subtree; on a whole binding it exempts the calls to it.  Float boxing at call boundaries is out of scope
    (dynamic minor-words slope tests cover it). *)

type result = {
  findings : Finding.t list;
  verified : string list;  (** [@@alloc_free] definitions that checked clean *)
}

val check : sup:Suppress.tracker -> Defs.t -> result
(** [check ~sup defs] analyzes every [@@alloc_free] definition in the
    collected tables, resolving statically-known callees recursively;
    [sup] tracks [@alloc_ok] staleness. *)
