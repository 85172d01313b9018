(** Raw, open-loop packet injectors — the inelastic cross traffic of the
    paper's experiments. They push packets along a
    {!Nimbus_topology.Topology} route with no acknowledgements and no
    congestion response: packets traverse every hop (loading each link's
    queue) and evaporate after the last one, while counting into the fabric
    conservation ledger. *)

type t

(** [poisson_via topo ~route ~rng ~rate ()] injects packets with
    exponential inter-arrival times averaging [rate].
    @param pkt_size bytes (default 1500)
    @param start absolute start time (default now)
    @param stop absolute stop time (default never)
    @raise Invalid_argument if [rate] is negative or not finite *)
val poisson_via :
  Nimbus_topology.Topology.t ->
  route:Nimbus_topology.Topology.Route.t ->
  rng:Nimbus_sim.Rng.t ->
  rate:Units.Rate.t ->
  ?pkt_size:int ->
  ?start:Units.Time.t ->
  ?stop:Units.Time.t ->
  unit ->
  t

(** [cbr_via topo ~route ~rate ()] injects packets with deterministic
    spacing — a constant-bit-rate stream. Options as for {!poisson_via}. *)
val cbr_via :
  Nimbus_topology.Topology.t ->
  route:Nimbus_topology.Topology.Route.t ->
  rate:Units.Rate.t ->
  ?pkt_size:int ->
  ?start:Units.Time.t ->
  ?stop:Units.Time.t ->
  unit ->
  t

(** [flow_id t] — for per-flow accounting at the bottleneck. *)
val flow_id : t -> int

(** [set_rate t rate] changes the injection rate ({!Units.Rate.zero}
    pauses, a negative rate counts as zero); scripted scenarios use this to
    vary the inelastic load.
    @raise Invalid_argument if [rate] is not finite *)
val set_rate : t -> Units.Rate.t -> unit

(** [rate t]. *)
val rate : t -> Units.Rate.t

(** [halt t] stops the source permanently. *)
val halt : t -> unit
