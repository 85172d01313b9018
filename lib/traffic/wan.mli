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
    @param prop_rtt cross-flow propagation RTT (default 50 ms)
    @param rtt_jitter_frac uniform per-flow RTT jitter, ± fraction
           (default 0.2)
    @param start default now
    @param stop stop generating new arrivals (existing flows finish)
    @param max_concurrent cap on simultaneously active cross-flows; arrivals
           beyond it are skipped and counted (default 512) *)
val create :
  Nimbus_topology.Topology.t ->
  route:Nimbus_topology.Topology.Route.t ->
  rng:Nimbus_sim.Rng.t ->
  load:Units.Rate.t ->
  ?profile:profile ->
  ?prop_rtt:Units.Time.t ->
  ?rtt_jitter_frac:float ->
  ?start:Units.Time.t ->
  ?stop:Units.Time.t ->
  ?max_concurrent:int ->
  unit ->
  t

(** [elastic_threshold_bytes] — flows strictly larger than this are counted
    elastic (10 packets of 1500 B). *)
val elastic_threshold_bytes : int

(** [bytes_split t] is [(elastic, total)] cumulative bytes received by
    cross-flow receivers — sampled periodically, the ratio of deltas is the
    ground-truth elastic byte fraction of Fig. 12. *)
val bytes_split : t -> int * int

(** [elastic_active t] holds while at least one elastic-sized cross-flow is
    still transferring. *)
val elastic_active : t -> bool

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
