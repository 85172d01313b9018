(** Synthetic wide-area cross traffic.

    Substitute for the CAIDA 2016 packet trace the paper replays: Cubic
    cross-flows whose sizes are drawn from a heavy-tailed mixture (lognormal
    body, Pareto tail) and whose arrivals form a Poisson process tuned to an
    offered load. Because the size distribution is heavy-tailed, the traffic
    alternates organically between periods dominated by long elastic flows
    and periods of short, effectively inelastic ones — the property the
    paper's trace-driven experiments rely on.

    Ground truth follows the paper's §8.1 definition: a cross-flow is
    *elastic* when it outlives the initial congestion window (10 packets),
    guaranteeing ACK-clocked transmissions. *)

type t

(** Size-mixture regimes, both heavy-tailed:
    [`Churny] (default) — many overlapping mid-size flows, the paper's
    throughput/delay/FCT workload; [`Elephant] — bytes concentrated in a
    sparse stream of multi-second flows, so elastic-dominated and mice-only
    periods alternate (the Fig. 12 regime). *)
type profile =
  [ `Churny
  | `Elephant
  ]

(** [create topo ~route ~rng ~load ()] starts the generator on the
    topology's engine; every cross-flow runs along [route].
    @param load offered load (arrival rate × mean flow size)
    @param profile size mixture (default [`Churny])
    Each cross-flow's RTT is [prop_rtt] jittered uniformly by ±20%.  At
    most 512 cross-flows run at once; arrivals beyond the cap
    are skipped and counted.
    @param prop_rtt cross-flow propagation RTT (default 50 ms) *)
val create :
  Nimbus_topology.Topology.t ->
  route:Nimbus_topology.Topology.Route.t ->
  rng:Nimbus_sim.Rng.t ->
  load:Units.Rate.t ->
  ?profile:profile ->
  ?prop_rtt:Units.Time.t ->
  unit ->
  t

(** [bytes_split t] is [(elastic, total)] cumulative bytes received by
    cross-flow receivers, a flow counting as elastic when it is larger than
    10 packets of 1500 B — sampled periodically, the ratio of deltas is the
    ground-truth elastic byte fraction of Fig. 12. *)
val bytes_split : t -> int * int

(** [persistent_elastic_active t ~now ~min_age ~min_size] holds while some
    elastic cross-flow of at least [min_size] bytes has been running for at
    least [min_age] — the detector's actual design target (§3.2: it needs
    the elastic traffic to persist across the FFT window), used as an
    alternative ground truth in the Fig. 12 reproduction. *)
val persistent_elastic_active :
  t -> now:Units.Time.t -> min_age:Units.Time.t -> min_size:int -> bool

(** [fcts t] is the completed transfers as [(size_bytes, fct)] pairs
    (Appendix B). *)
val fcts : t -> (int * Units.Time.t) array

(** [arrivals t], [skipped t] — generator accounting. *)
val arrivals : t -> int

val skipped : t -> int

(** [active_count t]. *)
val active_count : t -> int

(** [mean_flow_size t] — analytic mean of the configured size distribution;
    exposed to compute arrival rate from load. *)
val mean_flow_size : t -> Units.Bytes.t

(**/**)

(** Test hooks, not part of the API. *)
module Private : sig
  (** [launch t ~size] starts one cross-flow of [size] bytes now, as an
      arrival does (the concurrency cap is not checked), and returns it. *)
  val launch : t -> size:int -> Nimbus_cc.Flow.t

  (** [spare_controllers t] is the number of Cubic controllers waiting for
      a launch: each came back when the flow that held it was released. *)
  val spare_controllers : t -> int
end
