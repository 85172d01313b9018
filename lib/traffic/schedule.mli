(** Scripted cross-traffic scenarios — the phase headers of Fig. 1 and
    Fig. 8 ("16M/1T → 32M/2T → …"): each phase offers a given inelastic rate
    plus a number of long-running elastic (Cubic) flows. *)

type phase = {
  p_start : Units.Time.t;
  p_end : Units.Time.t;
  inelastic : Units.Rate.t; (* offered rate of the open-loop source *)
  elastic_flows : int; (* backlogged Cubic cross-flows during the phase *)
}

(** [phase ~start ~stop ~inelastic ~elastic_flows] builds one entry. *)
val phase :
  start:Units.Time.t ->
  stop:Units.Time.t ->
  inelastic:Units.Rate.t ->
  elastic_flows:int ->
  phase

type t

(** [install topo ~route ~rng ~phases ()] arms the scenario on the
    topology's engine: an open-loop source whose rate follows the script,
    and per-phase Cubic flows with a 50 ms propagation RTT, started and
    stopped at the boundaries, all along [route].
    @param inelastic [`Poisson] (default) or [`Cbr] *)
val install :
  Nimbus_topology.Topology.t ->
  route:Nimbus_topology.Topology.Route.t ->
  rng:Nimbus_sim.Rng.t ->
  phases:phase list ->
  ?inelastic:[ `Poisson | `Cbr ] ->
  unit ->
  t

(** Ground truth for scoring the detector. *)

(** [elastic_present t ~now] — does the script place elastic flows on the
    link at [now]? *)
val elastic_present : t -> now:Units.Time.t -> bool

(** [inelastic_rate t ~now] — scripted open-loop rate at [now]. *)
val inelastic_rate : t -> now:Units.Time.t -> Units.Rate.t

(** [fair_share t ~now ~mu ~primary_flows] — the throughput each of the
    [primary_flows] measured flows should get: the link capacity left after
    the inelastic traffic, split evenly with the elastic cross-flows. *)
val fair_share :
  t -> now:Units.Time.t -> mu:Units.Rate.t -> primary_flows:int -> Units.Rate.t

(** [elastic_cross_flows t] — every elastic flow the scenario created (for
    per-flow accounting). *)
val elastic_cross_flows : t -> Nimbus_cc.Flow.t list
