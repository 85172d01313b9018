(** The flow engine: one sender/receiver pair attached to a network route.

    Responsibilities:
    - transmit data packets, either ACK-clocked against the controller's
      window or paced at its rate (window still caps in-flight data);
    - model the receiver leg as pure delay and feed acknowledgements back;
    - detect losses via a reordering window (dup-ACK analogue) and a
      retransmission timeout, and retransmit reliably;
    - measure S(t) and R(t) over the same trailing window of acknowledged
      packets (Eq. 2 of the paper) and report them to the controller on a
      10 ms tick, mirroring the CCP loop.

    Only a flow that needs the tick keeps one: a controller with an
    [on_tick] hook or a pacing rate, or an [App_limited] source.  An
    ACK-clocked flow (a window-only controller such as Cubic with a
    [Backlogged] or [Finite] source) moves only on ACKs and losses; it keeps
    a single RTO deadline timer instead, which fires on the tick's grid, so
    a timeout happens at exactly the instant the tick would have found it.

    The engine is congestion-control agnostic: all algorithms, including
    Nimbus itself, plug in through {!Cc_types.t}. *)

type source =
  | Backlogged  (** always has data *)
  | Finite of int  (** bytes to transfer; completes when received *)
  | App_limited  (** sends only what {!supply} has provided *)

type t

(** [create_via topo ~route ~cc ~prop_rtt ()] wires a flow across a
    {!Nimbus_topology.Topology} route — the one way a flow enters the
    network. Packets are injected at the route's first link and the flow's
    receiver sink fires after the last hop; per-link propagation delays add
    to the [prop_rtt] end legs. The flow lives on the topology's engine. The
    paper's single bottleneck is the one-link [Topology.dumbbell] route.

    Data packets are 1500 bytes, and half of [prop_rtt] lies on each leg.

    A new flow takes the newest record that a flow given up with
    {!recycle} left in its engine's recycler
    ({!Nimbus_sim.Engine.take_spare}), with its scoreboard, rings and
    Eq. 2 rate ring at the sizes they grew to.  With none waiting, it
    starts from a fresh record whose buffers grow on demand.  Either way
    it takes a fresh id ({!Nimbus_sim.Engine.fresh_flow_id}).

    @param prop_rtt two-way propagation delay excluding queueing
    @param source defaults to [Backlogged]
    @param start absolute start time (default: now)
    @param on_complete invoked once when a [Finite] source finishes
    @param on_release invoked once, with the flow, when its record goes to
           the recycler: the flow was given up ({!recycle}) and released.
           From then on nothing of the flow calls [cc] again, so the
           controller may serve another flow ([Wan] resets its Cubic and
           hands it to its next launch).  Never invoked for a flow that is
           not given up or never released.
    @param tick_interval controller tick period (default 10 ms).  For an
           ACK-clocked flow it only sets the grid [start + k * interval]
           on which the RTO can fire.  A completed [Finite] flow with
           nothing left in flight stops its timers and is released: a
           late ACK or a late duplicate that reaches it afterwards
           changes only its counters.
    @raise Invalid_argument if [prop_rtt] is negative or not finite, or if
    [tick_interval] is not finite and positive *)
val create_via :
  Nimbus_topology.Topology.t ->
  route:Nimbus_topology.Topology.Route.t ->
  cc:Cc_types.t ->
  prop_rtt:Units.Time.t ->
  ?source:source ->
  ?start:Units.Time.t ->
  ?on_complete:(t -> unit) ->
  ?on_release:(t -> unit) ->
  ?tick_interval:Units.Time.t ->
  unit ->
  t

(** [id t] is the flow identifier used at the bottleneck. *)
val id : t -> int

(** [recycle t] gives [t] up: the caller, and whoever it shared [t] with,
    will not read, control or compare [t] again.  Once [t] is released
    (a completed [Finite] flow with nothing left in flight; at once if it
    already is), its whole record goes to its engine's recycler, and the
    next {!create_via} on that engine makes its next flow in it, under a
    new id.  What the earlier flow left behind acts on nothing: a late
    packet or ACK is dropped by its flow id, and a timer event carries
    the id of the flow that scheduled it.  A flow that is never released
    (a [Backlogged] or stopped flow) is never reused, and neither is a
    flow nobody gives up.  Calling it again does nothing.  [Wan] gives up
    each cross-flow when it completes. *)
val recycle : t -> unit

(** [supply t bytes] makes [bytes] more data available to an [App_limited]
    source. No-op for other sources. *)
val supply : t -> int -> unit

(** [stopped t]. *)
val stopped : t -> bool

(** External control actions (flow departure, fault injection).  All
    mutations of a running flow funnel through {!apply} — the single
    audited entry point, traced as [flow_control] events. *)
module Control : sig
  type t =
    | Extra_delay of Units.Time.t
        (** add this to the forward propagation leg of every subsequent
            delivery — a delay step; applied periodically with random
            values it models jitter.  May be negative as long as the
            total leg stays non-negative. *)
    | Ack_loss of (unit -> bool) option
        (** install ([Some f]) or remove ([None]) a reverse-path loss
            process: each ACK is dropped when [f ()] returns [true],
            leaving recovery to the sender's dup-ACK / RTO machinery. *)
    | Stop  (** halt transmission permanently (flow departure) *)
end

(** [apply t c] performs control action [c] on the flow.
    @raise Invalid_argument on a NaN/infinite extra delay or a negative
    total forward delay. *)
val apply : t -> Control.t -> unit

(** [extra_delay t] is the currently injected extra forward delay. *)
val extra_delay : t -> Units.Time.t

(** Telemetry *)

(** [received_bytes t] is the count delivered to the receiver application. *)
val received_bytes : t -> int

(** [acked_bytes t] is the count acknowledged back at the sender. *)
val acked_bytes : t -> int

(** [lost_packets t] is the cumulative loss count (dup-ACK and timeout). *)
val lost_packets : t -> int

(** [inflight_bytes t]. *)
val inflight_bytes : t -> int

(** [srtt t], [min_rtt t], [last_rtt t] — [Time.unknown] before the first
    ACK. *)
val srtt : t -> Units.Time.t

val min_rtt : t -> Units.Time.t

val last_rtt : t -> Units.Time.t

(** [send_rate t] / [recv_rate t] are the current S(t)/R(t) estimates;
    [Rate.unknown] until enough packets are acknowledged. *)
val send_rate : t -> Units.Rate.t

val recv_rate : t -> Units.Rate.t

(** [completion_time t] is when a [Finite] transfer finished. *)
val completion_time : t -> Units.Time.t option

(** [start_time t]. *)
val start_time : t -> Units.Time.t

(** {2 For tests} *)

(** [rto_order table] drains a scoreboard table the way a retransmission
    timeout does, and returns the seqs in the order they were queued for
    retransmission.  [table] holds each live seq [s] at index
    [s land (Array.length table - 1)] and -1 at a free index; its length
    is a power of two.  Every index is free afterwards. *)
val rto_order : int array -> int array
