(** The shared bottleneck link: a FIFO buffer drained at a fixed rate.

    Matches the paper's network model (Fig. 2): all senders' packets converge
    on one queue of rate µ; per-flow propagation happens outside this module.
    Optionally applies uniform random loss (lossy Internet paths) and a
    token-bucket policer (policed paths), both used by the §8.4 path-profile
    experiments. *)

type t

(** Construction parameters.  Start from {!Config.default} and override
    fields with record-update syntax:
    {[
      Bottleneck.create engine
        { (Bottleneck.Config.default ~rate ~qdisc) with
          policer = Some (rate, 30_000) }
    ]} *)
module Config : sig
  type t = {
    rate : Units.Rate.t;  (** drain rate µ; finite and positive *)
    qdisc : Qdisc.t;
    random_loss : (float * Rng.t) option;
        (** drop each admitted packet with this probability *)
    policer : (Units.Rate.t * int) option;
        (** token bucket of (rate, burst bytes); violating packets are
            dropped instead of queued *)
    trace : Nimbus_trace.Trace.t;
        (** collector for [packet]/[bottleneck] events (default
            {!Nimbus_trace.Trace.disabled}); every 64th enqueue and
            delivery is traced, and every drop *)
  }

  (** [default ~rate ~qdisc] — no loss, no policer, tracing off. *)
  val default : rate:Units.Rate.t -> qdisc:Qdisc.t -> t
end

(** [create engine config] builds an idle bottleneck.
    @raise Invalid_argument if [config.rate] is not finite and
    positive. *)
val create : Engine.t -> Config.t -> t

(** [set_sink t ~flow f] registers the delivery callback for [flow]'s packets
    (invoked when a packet finishes serialisation at the link head).  Sinks
    are kept in an array indexed by flow id, which an engine hands out
    densely from 0.
    @raise Invalid_argument if [flow] is negative. *)
val set_sink : t -> flow:int -> (Packet.t -> unit) -> unit

(** [enqueue t pkt] submits [pkt]; it is either queued or dropped.
    @raise Invalid_argument if [pkt.flow] is negative. *)
val enqueue : t -> Packet.t -> unit

(** Fault hooks (driven by [lib/faults]) *)

(** [set_rate t rate] changes the drain rate µ mid-run. [Rate.zero] stalls
    the link (an outage): queued packets are held, not dropped, and drain
    resumes when a positive rate is restored. A packet already being
    serialised keeps its old completion time.
    @raise Invalid_argument if [rate] is NaN, infinite, or negative. *)
val set_rate : t -> Units.Rate.t -> unit

(** [set_loss_model t f] installs ([Some f]) or removes ([None]) a stateful
    loss process consulted per offered packet after the policer and the
    uniform [random_loss]; [f pkt = true] drops the packet (e.g. a
    Gilbert–Elliott burst-loss injector). *)
val set_loss_model : t -> (Packet.t -> bool) option -> unit

(** Observability *)

(** [rate t] is the current drain rate µ. *)
val rate : t -> Units.Rate.t

(** [qlen_bytes t] includes the packet currently being serialised. *)
val qlen_bytes : t -> int

(** [queue_delay t] is the drain-time estimate [qlen·8/rate]; during an
    outage ([rate = 0]) the last positive rate is used so the estimate stays
    finite. *)
val queue_delay : t -> Units.Time.t

(** [drops t] is the cumulative count of dropped packets. *)
val drops : t -> int

(** [marks t] is the cumulative count of packets ECN-marked by the qdisc
    ({!Qdisc.decision} [Mark]); always [0] unless the discipline was built
    with ECN enabled. Marked packets are admitted, so they appear in the
    conservation ledger as delivered/queued, never as drops. *)
val marks : t -> int

(** [delivered_bytes t ~flow] is the cumulative bytes serialised for
    [flow]. *)
val delivered_bytes : t -> flow:int -> int

(** [busy_time t] is the cumulative time the link spent transmitting —
    divide by elapsed time for utilisation. *)
val busy_time : t -> Units.Time.t

(** [capacity_bytes t] is the buffer size. *)
val capacity_bytes : t -> int

(** Packet-conservation ledger, audited by the invariant monitor: at any
    instant [offered = delivered + drops + queued]. *)

(** [offered_packets t] counts every packet ever submitted via {!enqueue}. *)
val offered_packets : t -> int

(** [delivered_packets t] counts packets that finished serialisation. *)
val delivered_packets : t -> int

(** [queued_packets t] is the number buffered right now, including the one
    being serialised. *)
val queued_packets : t -> int
