(** Discrete-event simulation engine.

    A single mutable clock plus an event queue — a calendar-queue {!Wheel}
    (O(1) near-future pushes, heap spill for far timers, FIFO order among
    equal timestamps). All network elements, congestion controllers, and
    traffic sources advance by scheduling callbacks on the shared engine:
    thunks, or packet legs ({!schedule_pkt_in}) that apply a handler built
    once to a packet, so that moving a packet builds no closure.  Queued
    events sit in recycled cells, and the drain loop allocates nothing.

    All clock readings and delays are {!Units.Time.t} — the engine is the
    root of the time dimension, so a hertz or Mbit/s value can never reach
    the scheduler. *)

type t

(** Construction parameters, in the same Config-record style as
    [Bottleneck.Config] and [Nimbus.Config]: start from {!Config.default}
    and override fields with record-update syntax.  The trace collector is
    fixed for the engine's lifetime — mid-run collector swapping (the old
    [set_trace] escape hatch) is gone; build the engine with the collector
    the run needs. *)
module Config : sig
  type t = {
    trace : Nimbus_trace.Trace.t;
        (** the run's trace collector (default
            {!Nimbus_trace.Trace.disabled}); every [256]-th scheduled event
            is recorded under the [engine] category, and {!run_until}
            drains inside an [engine_drain] profiling span *)
  }

  (** [default] — tracing off. *)
  val default : t
end

(** [create config] is a fresh engine with the clock at [Time.zero]. *)
val create : Config.t -> t

(** [trace t] is the run's trace collector — network elements created on
    this engine and control hooks such as [Flow.apply] emit through it. *)
val trace : t -> Nimbus_trace.Trace.t

(** [fresh_flow_id t] allocates the next engine-scoped flow id (0, 1, …).
    Ids are per-engine rather than process-global so that repeated runs of
    the same scenario — sequentially or on different domains — number their
    flows, and therefore their traces, identically. *)
val fresh_flow_id : t -> int

(** [now t] is the current simulated time.  The result is boxed at most
    once per instant and shared by every caller until the clock moves,
    across all the events at that instant. *)
val now : t -> Units.Time.t

(** [clock t] is a one-slot array whose slot 0 holds the current time in
    seconds.  Hot readers in other modules keep it and read it in place,
    which boxes nothing; it must not be written. *)
val clock : t -> Float.Array.t

(** [schedule_at t time f] runs [f] when the clock reaches [time]. Scheduling
    in the past — or at a NaN/infinite time, which would silently corrupt the
    queue order — raises [Invalid_argument]. *)
val schedule_at : t -> Units.Time.t -> (unit -> unit) -> unit

(** [schedule_in t delay f] runs [f] after [delay] ([delay >= Time.zero] and
    finite; NaN/infinite delays raise [Invalid_argument]). *)
val schedule_in : t -> Units.Time.t -> (unit -> unit) -> unit

(** [schedule_pkt_in t delay h pkt] runs [h pkt] after [delay], with the
    same validation and the same place in the event order as
    [schedule_in t delay (fun () -> h pkt)], but without building that
    closure: a handler made once carries every packet.
    @raise Invalid_argument if [pkt] is {!Packet.none}. *)
val schedule_pkt_in :
  t -> Units.Time.t -> (Packet.t -> unit) -> Packet.t -> unit

(** {2 Scheduling from a key written in place}

    A float passed to a function in another module is boxed (dune builds
    with [-opaque]), so a hot caller that computes an event's time writes
    it into the engine's key register instead, and schedules from there:
    nothing is boxed.  Each [_key] entry makes the same checks as its boxed
    twin and gives the event the same place in the event order; only
    [schedule_at_key], like [schedule_at], is sampled by the trace. *)

(** [key t] is the engine's one-slot key register.  Write slot 0 just
    before a [_key] call: the engine reuses the register for every push
    and pop. *)
val key : t -> Float.Array.t

(** [schedule_at_key t f] is [schedule_at t (Time.secs k) f], where [k] is
    slot 0 of {!key}. *)
val schedule_at_key : t -> (unit -> unit) -> unit

(** [schedule_in_key t f] is [schedule_in t (Time.secs d) f], where [d] is
    slot 0 of {!key}. *)
val schedule_in_key : t -> (unit -> unit) -> unit

(** [every t ~dt ?start ?until f] runs [f] at [start] (default: [now + dt])
    and every [dt] thereafter, stopping after [until] when given. *)
val every :
  t ->
  dt:Units.Time.t ->
  ?start:Units.Time.t ->
  ?until:Units.Time.t ->
  (unit -> unit) ->
  unit

(** [run_until t horizon] processes events in timestamp order until the queue
    empties or the next event lies beyond [horizon]; the clock ends at
    [horizon] (or at the last event if the queue drained early and no event
    reached the horizon). *)
val run_until : t -> Units.Time.t -> unit

(** {2 The recycler}

    A per-engine LIFO of spares that a finished element hands back for
    the next element on the same engine to reuse, instead of leaving them
    to the GC and building fresh ones.  A flow given up by its owner
    hands over its whole record when it is released ([Flow] adds the
    constructor).  The LIFO is per engine, like the event cells, so runs
    share nothing. *)

(** A recycled element; each module that recycles adds its own
    constructor. *)
type spare = ..

(** What {!take_spare} returns when the LIFO is empty. *)
type spare += No_spare

(** [put_spare t s] pushes [s]; its owner must not touch it again. *)
val put_spare : t -> spare -> unit

(** [take_spare t] pops the newest spare, or [No_spare]; it allocates
    nothing. *)
val take_spare : t -> spare

(** [pending t] is the number of queued events (of use to tests). *)
val pending : t -> int
