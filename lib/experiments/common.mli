(** Shared experiment plumbing: link setup, scheme registry, run profiles.

    The {!profile} is an experiment's whole run context: its scale, its seed
    count and the pool its cases fan out over.  The module keeps no state of
    its own, so two runs in one process never see each other. *)

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
  pool : Nimbus_parallel.Pool.t option;
      (** the domains {!map_cases} fans cases out over; [None] (as in
          {!quick} and {!full}) runs them in the caller *)
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

(** [max_link_mbps] is 1000: the fastest link, in Mbit/s, that any
    experiment, example or test builds (1 Gbit/s).  The CLI rejects a
    faster link or cross rate: the simulator's cost grows with the packet
    rate, so a run at 1e302 Mbit/s never finishes. *)
val max_link_mbps : float

(** [min_link_mbps] is 0.001: the slowest link or cross rate, in Mbit/s
    (1 kbit/s, a 12 s packet time), that the CLI accepts.  Far below it a
    packet's serialisation time or a source's gap overflows to infinity:
    at 1e-320 Mbit/s the run died on an uncaught exception. *)
val min_link_mbps : float

(** [max_duration_s] is 86 400: the longest simulated run, in seconds (a
    day), that the CLI accepts.  A run's cost grows with its duration, so
    [--duration=1e308] never finished. *)
val max_duration_s : float

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
  ?pulse_frac:float ->
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

(** [measure_accuracy engine running ~start ~until truth] scores
    [running]'s mode against [truth ()] every 100 ms from [start] to
    [until]; it records nothing for a scheme with no mode. *)
val measure_accuracy :
  Nimbus_sim.Engine.t ->
  running ->
  start:Units.Time.t ->
  until:Units.Time.t ->
  (unit -> bool) ->
  Nimbus_metrics.Accuracy.t

(** [mean s ~lo ~hi] / [pct s ~lo ~hi p] over a series window given in
    seconds, ignoring NaNs. *)
val mean : Nimbus_metrics.Series.t -> lo:float -> hi:float -> float

val pct : Nimbus_metrics.Series.t -> lo:float -> hi:float -> float -> float

(** Parallel fan-out

    Experiments fan independent cases (scenarios, seeds) out over their
    profile's pool.  Each case must build its own engine, RNG, and flows
    from its inputs — cases run on arbitrary domains and must share no
    mutable state.  Results always come back in input order, so tables are
    byte-identical whatever the pool size. *)

(** [map_cases p ~f cases] is [List.map f cases], evaluated across [p.pool]
    when it has more than one domain. *)
val map_cases : profile -> f:('a -> 'b) -> 'a list -> 'b list

(** [run_seeds p ~base f] runs [f ~seed] for [p.seeds] consecutive seeds
    starting at [base] (so quick profiles, with one seed, behave exactly like
    a fixed-seed run) and returns the results in seed order. *)
val run_seeds : profile -> base:int -> (seed:int -> 'a) -> 'a list

(** Crash isolation

    A case that raises (or produces a result its [check] rejects, e.g. a
    non-finite statistic) must cost one table cell, not the whole run. *)

type crash = {
  crash_seed : int;  (** the case's own seed, before any retry rekey *)
  crash_attempts : int;  (** attempts consumed *)
  crash_exn : exn;
      (** what the last attempt raised, so callers can classify typed
          failures — e.g. the sweep's watchdog timeout vs a genuine crash *)
}

(** [run_case ~seed f] runs [f ~seed], capturing any exception instead of
    propagating it.  With the default single attempt a crash is reported at
    [seed] itself, so a table shows the crash cell rather than another
    seed's result.  With [attempts > 1] (the sweep's watchdog) a failed case
    is retried on a fresh deterministic RNG stream ([seed] rekeyed once per
    retry) until it succeeds or the attempts are exhausted.  Deterministic:
    identical inputs give identical results whatever pool runs them.
    @param check result validation — [Some msg] marks the result invalid and
           is treated exactly like a raise
    @param attempts total tries (>= 1, default 1) *)
val run_case :
  ?check:('a -> string option) ->
  ?attempts:int ->
  seed:int ->
  (seed:int -> 'a) ->
  ('a, crash) result

(** [crash_cell c] — short marker for the table cell of a crashed case. *)
val crash_cell : crash -> string

(** [clear_crashes ()] does nothing: {!run_case} returns each crash and
    nothing logs them.  It is kept only because perfbench's path_sweep
    workload still calls it; ROADMAP item 4's perfbench change deletes the
    call and this function with it. *)
val clear_crashes : unit -> unit
