(** [unit-raw-boundary]: module-level functions in the unit-bearing
    libraries that take a raw float only to immediately wrap it as a single
    dimension, or return a raw float every tail of the body unwraps from a
    single dimension — the carrier type belongs in the signature. *)

(** Libraries checked by default (the exported unit-API surface:
    core, cc, sim, topology, dsp). *)
val default_scope : string list

val check :
  sup:Suppress.tracker ->
  scope:string list ->
  Unit_api.t ->
  Defs.t ->
  Finding.t list
