(** Units dataflow: follow dimension taints on raw floats after they leave
    the lib/units carriers, reporting [unit-mix] (different dimensions meet
    additively or in a comparison) and [unit-rewrap] (a tainted float enters
    a constructor of a different dimension).  [@unit_ok "why"] escapes are
    accounted through the shared suppression tracker. *)

(** Libraries swept by default (the unit-arithmetic surface of the
    simulator: core, cc, sim, topology, dsp, faults, metrics, traffic,
    experiments). *)
val default_scope : string list

type result = {
  findings : Finding.t list;
  checked : int;  (** module-level definitions the dataflow evaluated *)
}

val check :
  sup:Suppress.tracker -> scope:string list -> Unit_api.t -> Defs.t -> result
