(** Multi-bottleneck network fabric: a directed graph of nodes and links,
    each link owning its own {!Nimbus_sim.Bottleneck} (rate, qdisc, buffer)
    plus a propagation delay, with per-flow routes as link lists. It is
    the one way traffic enters the network: create a topology, add nodes
    and links, build a {!Route.t}, then {!attach} a flow's packet sink to
    the route and inject packets through the returned ingress function
    ([Flow.create_via] and [Source.poisson_via]/[cbr_via] do this for
    you). Packets are forwarded link-to-link through the shared
    calendar-queue engine: after finishing serialisation at link [i] and
    crossing its propagation delay, a packet is enqueued at link [i+1], or
    delivered to the flow's sink after the last hop.

    The paper's dumbbell is the degenerate case — two nodes, one link, zero
    propagation delay: the ingress is a plain [Bottleneck.enqueue] and the
    terminal delivery a direct call, with no extra scheduled events. Its
    traces are pinned byte for byte by the topology test suite.

    Conservation: each link keeps its own offered/delivered/drops/queued
    ledger (see {!Nimbus_sim.Bottleneck}); the topology adds fabric-level
    counters — packets injected at ingresses, completed at terminal sinks,
    and in flight between links — tied together by {!conservation_check}.
    The fabric-level identity counts only traffic that enters through
    {!attach} ingresses; a packet enqueued at a link's bottleneck by hand
    would be counted by that link's ledger only. *)

type t

type node

type link

module Link : sig
  (** Construction parameters for one directed link, in the same
      Config-record style as [Bottleneck.Config]. *)
  module Config : sig
    type t = {
      bottleneck : Nimbus_sim.Bottleneck.Config.t;
          (** the link's queue: rate, qdisc, loss, policer, trace *)
      prop_delay : Units.Time.t;
          (** one-way propagation latency crossed after serialisation,
              before the packet reaches the link's [dst] node (default
              {!Units.Time.zero}: forwarding is a direct call with no
              scheduled event) *)
    }

    (** [default ~rate ~qdisc] — zero propagation delay, and
        [Bottleneck.Config.default] for everything else. *)
    val default : rate:Units.Rate.t -> qdisc:Nimbus_sim.Qdisc.t -> t
  end
end

module Route : sig
  (** A forward path: a non-empty list of contiguous links (each link's
      destination node is the next link's source). *)
  type t

  (** [of_links links] validates and builds a route.
      @raise Invalid_argument if [links] is empty or not contiguous. *)
  val of_links : link list -> t

  val links : t -> link list

  (** [hops r] is the number of links. *)
  val hops : t -> int
end

(** [create engine] is an empty topology whose links and forwarding events
    all live on [engine]. *)
val create : Nimbus_sim.Engine.t -> t

val engine : t -> Nimbus_sim.Engine.t

(** [add_node t name] adds a node. Names are labels for humans (link labels
    are ["src->dst"]); they need not be unique. *)
val add_node : t -> string -> node

(** [nodes t] in creation order. *)
val nodes : t -> node list

(** [add_link t ~src ~dst config] adds a directed link owning a fresh
    bottleneck built from [config.bottleneck].
    @raise Invalid_argument on a self-loop or a negative/non-finite
    propagation delay. *)
val add_link : t -> src:node -> dst:node -> Link.Config.t -> link

(** [links t] in creation order. *)
val links : t -> link list

(** [link_label l] is ["src->dst"]. *)
val link_label : link -> string

(** [link_bottleneck l] is the queue the link owns — for fault injection,
    queue monitors, and per-link stats. *)
val link_bottleneck : link -> Nimbus_sim.Bottleneck.t

(** [attach t ~route ~flow ~sink] wires [flow]'s packets along [route]:
    every hop forwards to the next link, and packets leaving the last hop
    are handed to [sink]. Returns the ingress function that injects a
    packet at the route's first link (resetting its hop cursor and
    counting it into the fabric ledger).

    Cost: nothing per flow.  Each link's ingress and last hop, and the
    handler that forwards from a link to each next link, are built once
    (the last at the first route that takes the pair) and shared by
    every flow; [attach] checks the route and stores [sink] and the
    handlers into tables indexed by flow id, which double as ids grow.
    Every flow of a route gets the same ingress.

    Attaching the same flow id again — to this or an overlapping route —
    replaces its sink and per-link handlers, mirroring
    [Bottleneck.set_sink].
    @raise Invalid_argument if some link of [route] is not part of [t],
    or if [flow] is negative; nothing is stored then. *)
val attach :
  t ->
  route:Route.t ->
  flow:int ->
  sink:(Nimbus_sim.Packet.t -> unit) ->
  Nimbus_sim.Packet.t ->
  unit

(** Fabric-level conservation counters. *)

(** [injected_packets t] counts packets entered through attach ingresses. *)
val injected_packets : t -> int

(** [completed_packets t] counts packets delivered past a terminal hop. *)
val completed_packets : t -> int

(** [in_transit_packets t] counts packets currently crossing a propagation
    delay between links (or before terminal delivery). *)
val in_transit_packets : t -> int

(** [conservation_check t] is [None] when every ledger balances:
    per link [offered = delivered + drops + queued], and across the fabric
    [Σ offered − injected − Σ delivered + completed + in_transit = 0]
    with [in_transit ≥ 0]. Otherwise [Some detail] describing the first
    violation. The experiment layer's invariant monitor ([Common.audit])
    adds it to every audited run. *)
val conservation_check : t -> string option

(** [dumbbell engine config] is the two-node degenerate case: nodes
    ["src"] and ["dst"] joined by one link, returned with its single-hop
    route. *)
val dumbbell : Nimbus_sim.Engine.t -> Link.Config.t -> t * Route.t
