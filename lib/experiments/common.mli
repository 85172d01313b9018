(** Shared experiment plumbing: link setup, scheme registry, run profiles. *)

module Engine = Nimbus_sim.Engine
module Bottleneck = Nimbus_sim.Bottleneck
module Rng = Nimbus_sim.Rng
module Topology = Nimbus_topology.Topology
module Flow = Nimbus_cc.Flow

(** Quick profiles shrink durations/repetitions while preserving shapes;
    full profiles use the paper's parameters. *)
type profile = {
  time_scale : float; (* multiply experiment durations *)
  seeds : int; (* repetitions for averaged results *)
}

val quick : profile

val full : profile

(** [scaled profile seconds] is the effective duration in seconds. *)
val scaled : profile -> float -> float

(** Emulated bottleneck description (Mahimahi-equivalent). *)
type link = {
  mu : Units.Rate.t;
  prop_rtt : Units.Time.t;
  buffer_bdp : float; (* buffer as a multiple of mu·prop_rtt *)
  aqm : [ `Droptail | `Pie of Units.Time.t ]; (* PIE target delay *)
}

(** [link ~mbps ~rtt_ms ~buffer_bdp ()] — convenience constructor. *)
val link :
  mbps:float ->
  rtt_ms:float ->
  ?buffer_bdp:float ->
  ?aqm:[ `Droptail | `Pie of Units.Time.t ] ->
  unit ->
  link

(** The wired-up network a dumbbell experiment runs on: a degenerate
    two-node topology whose single link is the bottleneck, plus the route
    primary flows take across it. Experiments that want more hops build
    their own {!Topology.t} directly (see [Exp_parking_lot]). *)
type net = {
  engine : Engine.t;
  topo : Topology.t;
  route : Topology.Route.t;  (** the one-link forward path *)
  bottleneck : Bottleneck.t;  (** the route's link, for stats and faults *)
  rng : Rng.t;
  net_link : link;  (** the description [setup] built from *)
}

(** [setup ?trace ?queue ~seed l] builds the dumbbell network.  When
    [trace] is given it becomes the run's shared collector: it is installed
    on the engine (where flows, faults, and invariant monitors find it) and
    on the bottleneck, and scheme constructors pick it up via
    [Engine.trace].
    @param queue [queue rng] is the link's queue configuration in place of
           the one derived from [l] (its [trace] field is overridden). It
           runs right after the run's RNG is created, so any split it makes
           comes first — part of the byte-identical-trace contract. *)
val setup :
  ?trace:Nimbus_trace.Trace.t ->
  ?queue:(Rng.t -> Bottleneck.Config.t) ->
  seed:int ->
  link ->
  net

(** [audit ?nimbus topo] starts the invariant monitor on [topo]'s engine:
    every link's conservation ledger and queue (labelled by
    [Topology.link_label]), the labelled Nimbus controllers, and the
    fabric-level [topology-conservation] identity, which holds because all
    traffic enters through [Topology.attach]. *)
val audit :
  ?nimbus:(string * Nimbus_core.Nimbus.t) list ->
  Topology.t ->
  Nimbus_metrics.Invariant.t

(** A scheme is a named congestion-control configuration a primary flow can
    run, paired with optional introspection for mode-switching schemes. *)
type running = {
  flow : Flow.t;
  in_competitive : (unit -> bool) option;
      (** for Nimbus/Copa: current mode, for accuracy scoring *)
  nimbus : Nimbus_core.Nimbus.t option;
}

type scheme = {
  scheme_name : string;
  start_flow : net -> ?start:Units.Time.t -> unit -> running;
}

val nimbus :
  ?name:string ->
  ?delay:Nimbus_core.Nimbus.delay_alg ->
  ?competitive:Nimbus_core.Nimbus.competitive_alg ->
  ?pulse_frac:float ->
  ?fp:Units.Freq.t ->
  ?multi_flow:bool ->
  ?seed:int ->
  ?estimate_mu:bool ->
  unit ->
  scheme

(** BasicDelay without mode switching — "Nimbus delay" in Appendix A. *)
val nimbus_delay_only : scheme

val cubic : scheme

val reno : scheme

val vegas : scheme

val copa : scheme

val bbr : scheme

val vivace : scheme

val compound : scheme

(** [all_baselines] — the fixed algorithms compared throughout §5/§8. *)
val all_baselines : scheme list

(** Measurement helpers *)

type run_stats = {
  tput_series : Nimbus_metrics.Series.t; (* 1 s bins, bps *)
  qdelay_series : Nimbus_metrics.Series.t; (* 100 ms samples, seconds *)
  rtt_series : Nimbus_metrics.Series.t; (* 100 ms samples, seconds *)
}

(** [instrument net running ~until] attaches the standard monitors:
    [running]'s throughput and RTT, and the bottleneck's queue delay. *)
val instrument : net -> running -> until:Units.Time.t -> run_stats

(** [mean s ~lo ~hi] / [pct s ~lo ~hi p] over a series window given in
    seconds, ignoring NaNs. *)
val mean : Nimbus_metrics.Series.t -> lo:float -> hi:float -> float

val pct : Nimbus_metrics.Series.t -> lo:float -> hi:float -> float -> float

(** Parallel fan-out

    Experiments fan independent cases (scenarios, seeds) out over an ambient
    {!Nimbus_parallel.Pool.t} installed by the harness.  Each case must build
    its own engine, RNG, and flows from its inputs — cases run on arbitrary
    domains and must share no mutable state.  Results always come back in
    input order, so tables are byte-identical whatever the pool size. *)

(** [set_pool p] installs (or, with [None], removes) the ambient pool. *)
val set_pool : Nimbus_parallel.Pool.t option -> unit

(** [map_cases ~f cases] is [List.map f cases], evaluated across the ambient
    pool when one is installed. *)
val map_cases : f:('a -> 'b) -> 'a list -> 'b list

(** [run_seeds p ~base f] runs [f ~seed] for [p.seeds] consecutive seeds
    starting at [base] (so quick profiles, with one seed, behave exactly like
    a fixed-seed run) and returns the results in seed order. *)
val run_seeds : profile -> base:int -> (seed:int -> 'a) -> 'a list

(** Crash isolation

    A case that raises (or produces a result its [check] rejects, e.g. a
    non-finite statistic) must cost one table cell, not the whole run. *)

type crash = {
  crash_label : string;
  crash_seed : int;  (** the original seed, before any retry rekey *)
  crash_exn : string;
  crash_backtrace : string;
  crash_recovered : bool;  (** a retry on a rekeyed seed succeeded *)
  crash_attempts : int;  (** attempts consumed (including the success) *)
  crash_raw : exn;
      (** the captured exception itself (recovered: the first failure;
          exhausted: the last), so callers can classify typed failures —
          e.g. the sweep's watchdog timeout vs a genuine crash *)
}

(** [run_case ~label ~seed f] runs [f ~seed], capturing any exception (with
    its backtrace) instead of propagating it.  A failed case is retried on a
    fresh deterministic RNG stream ([seed] rekeyed once per retry) until it
    succeeds or [attempts] (default 2, i.e. one retry) are exhausted, at
    which point the case is reported as [Error].  Both outcomes are appended
    to the {!crashes} log.  Deterministic: identical inputs give identical
    results whatever pool runs them.
    @param check result validation — [Some msg] marks the result invalid and
           is treated exactly like a raise
    @param attempts total tries (>= 1)
    @param backoff called before retry attempt [k] (2-based) — the sweep's
           capped exponential sleep; must be domain-safe *)
val run_case :
  ?check:('a -> string option) ->
  ?attempts:int ->
  ?backoff:(attempt:int -> unit) ->
  label:string ->
  seed:int ->
  (seed:int -> 'a) ->
  ('a, crash) result

(** [crash_cell c] — short marker for the table cell of a crashed case. *)
val crash_cell : crash -> string

(** [crashes ()] — all crashes recorded since {!clear_crashes}, sorted by
    (label, seed) so reports are stable across pool sizes. *)
val crashes : unit -> crash list

val clear_crashes : unit -> unit

(** [set_crash_hook h] installs (or clears) a test-only hook consulted before
    each {!run_case} attempt; returning [true] forces that attempt to raise.
    The retry runs under a rekeyed seed, so a hook matching only the original
    seed exercises the recovery path. *)
val set_crash_hook : (label:string -> seed:int -> bool) option -> unit
