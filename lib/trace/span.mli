(** Lightweight profiling scopes for hot pipeline stages.

    Instrumented code brackets a stage with [Span.enter id] /
    [Span.leave id]; when profiling is enabled each pair accumulates
    count / total / max wall time into preallocated per-id slots.
    When disabled (the default) both calls are branch-only, so
    instrumentation can stay in production paths.

    The aggregation state is global and {b not domain-safe}: enable it
    only for single-domain profiling runs (e.g. [bench --micro]). *)

type id =
  | Fft  (** one FFT plan execution *)
  | Spectrum  (** one spectrum analysis window *)
  | Detector_tick  (** one Nimbus 10 ms tick *)
  | Engine_drain  (** one [Engine.run_until] drain *)
  | Flow_tick  (** one congestion-control flow tick *)

(** Enable aggregation (and reset nothing — see {!reset}). *)
val enable : unit -> unit

val disable : unit -> unit
val enabled : unit -> bool

(** [set_clock f] replaces the time source (default [Sys.time]); used
    by tests for deterministic reports. *)
val set_clock : (unit -> float) -> unit

val enter : id -> unit

(** [leave id] accrues the time since the matching {!enter}.
    Unbalanced leaves are ignored. *)
val leave : id -> unit

(** Zero all accumulated statistics. *)
val reset : unit -> unit

type stat = {
  s_id : id;
  s_count : int;
  s_total : float;  (** seconds *)
  s_max : float;  (** seconds *)
}

(** [stats ()] — one entry per id with a nonzero count. *)
val stats : unit -> stat list

(** [report ()] — aligned table of {!stats} (empty string if no spans
    fired). *)
val report : unit -> string
