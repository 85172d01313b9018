(** Race / domain-safety pass.

    Capture analysis at every pool entry point ([Pool.map] and the pool's
    internal [submit], [Common.map_cases] / [run_seeds], [Domain.spawn]), transitive [@@domain_safe] function certification,
    and a sweep for module-level mutable state in the simulation-reachable
    libraries.  Suppressed with reasoned [@shared_ok "why"] attributes,
    tracked by {!Suppress}. *)

type result = {
  findings : Finding.t list;
  certified : string list;
      (** [@@domain_safe] definitions that verified clean, sorted *)
  sites : int;  (** pool entry-point call sites capture-checked *)
}

(** [check ~sup ~scope defs units] runs all three sub-rules; [scope] is the
    library list swept for module-level mutable state ({!Defs.sim_libs} for
    the repo). *)
val check :
  sup:Suppress.tracker ->
  scope:string list ->
  Defs.t ->
  Cmt_scan.unit_info list ->
  result
