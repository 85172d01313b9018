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

    @param prop_rtt two-way propagation delay excluding queueing
    @param fwd_frac fraction of [prop_rtt] after the bottleneck on the
           forward leg (default 0.5)
    @param pkt_size data packet size in bytes (default 1500)
    @param source defaults to [Backlogged]
    @param start absolute start time (default: now)
    @param on_complete invoked once when a [Finite] source finishes
    @param tick_interval controller tick period (default 10 ms); a
           completed [Finite] flow with nothing left in flight stops
           ticking
    @raise Invalid_argument if [prop_rtt] is negative or not finite *)
val create_via :
  Nimbus_topology.Topology.t ->
  route:Nimbus_topology.Topology.Route.t ->
  cc:Cc_types.t ->
  prop_rtt:Units.Time.t ->
  ?fwd_frac:float ->
  ?pkt_size:int ->
  ?source:source ->
  ?start:Units.Time.t ->
  ?on_complete:(t -> unit) ->
  ?tick_interval:Units.Time.t ->
  unit ->
  t

(** [id t] is the flow identifier used at the bottleneck. *)
val id : t -> int

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

(** [cc_name t]. *)
val cc_name : t -> string
