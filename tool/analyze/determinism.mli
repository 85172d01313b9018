(** Determinism pass: bans wall-clock/entropy/ambient-state escapes,
    order-dependent Hashtbl iteration, and polymorphic compare/hash on
    float-bearing types ([det-poly-compare]) inside the scoped libraries.
    Exempt an expression with [@det_ok "reason"]. *)

val check :
  sup:Suppress.tracker ->
  scope:string list ->
  Defs.t ->
  Cmt_scan.unit_info list ->
  Finding.t list
(** [check ~sup ~scope defs units] checks every implementation unit whose
    owning library is in [scope] ({!Defs.sim_libs} for the repo); [defs]
    supplies alias normalization and the type declarations det-poly-compare
    resolves through; [sup] tracks [@det_ok] use. *)
