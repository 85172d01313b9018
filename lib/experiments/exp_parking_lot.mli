(** Parking lot: K bottleneck links in a chain, each carrying its own Nimbus
    population, interfering through elastic (cubic) and inelastic (poisson)
    cross traffic that spans adjacent link pairs.  The first experiment
    built entirely on the {!Nimbus_topology.Topology} fabric: per-link AND
    fabric-wide packet conservation are audited by the invariant monitor,
    and the scenario scales to thousands of flows ([scaled_params] is the
    CI topology-smoke entry point). *)

val id : string

val title : string

type params = {
  links : int;  (** K >= 2 chained bottlenecks *)
  mbps : float;  (** per-link drain rate *)
  rtt_ms : float;  (** per-flow two-way propagation (end legs) *)
  prop_ms : float;  (** per-link one-way propagation delay *)
  buffer_bdp : float;  (** per-link buffer as a multiple of mu x rtt *)
  nimbus_per_link : int;
  elastic_cross : int;  (** cubic flows per adjacent link pair *)
  inelastic_frac : float;  (** poisson rate per pair, as a fraction of mu *)
  duration : float;  (** simulated seconds *)
  seed : int;
}

(** [scaled_params ~links ~flows ()] sizes the scenario to a total of
    [flows] congestion-controlled flows (one Nimbus per link, the rest
    elastic cross traffic spread over the adjacent pairs — rounded up, so
    the realized flow count may slightly exceed [flows]).
    @raise Invalid_argument if [links < 2], [flows < links], [mbps] is not
    in [{!Common.min_link_mbps}, {!Common.max_link_mbps}], or [duration] is
    not in (0, {!Common.max_duration_s}]. *)
val scaled_params :
  ?mbps:float ->
  ?duration:float ->
  ?seed:int ->
  links:int ->
  flows:int ->
  unit ->
  params

type outcome = {
  tables : Table.t list;
  violations : int;  (** invariant-monitor violations (0 = healthy) *)
  report : string;  (** the monitor's violation report (CI artifact) *)
  delivered : int;  (** packets that finished serialisation, all links *)
  flows : int;
      (** congestion-controlled flows run (Nimbus + elastic cross; poisson
          sources are open-loop and not counted) *)
}

(** [run_custom p] builds the chain topology, runs it to [p.duration], and
    returns tables plus the machine-checkable outcome. *)
val run_custom : ?trace:Nimbus_trace.Trace.t -> params -> outcome

(** Registry entry: the default 3-link chain at the profile-scaled
    duration. *)
val run : Common.profile -> Table.t list
