(** The synthetic Internet-path population behind Fig. 18/19 and the fleet
    sweep (see DESIGN.md §16).

    One sequential splitmix64 stream, a fixed number of draws per path: the
    first [k] paths of any sample are identical whatever the total count, so
    the 25-path figure and a 10^5-path sweep describe the same population. *)

type t = {
  p_id : int;  (** index in the sampled population *)
  mbps : float;
  rtt_ms : float;
  buffer_bdp : float;  (** buffer as a multiple of the BDP *)
  loss : float;  (** random loss probability; [0.] on non-lossy paths *)
  policed : bool;
  wan_load : float;  (** background traffic as a fraction of the link *)
}

(** A stateful sequential generator producing paths [0, 1, 2, ...]. *)
type sampler

val sampler : seed:int -> sampler

(** [next s] draws the next path; O(1), six RNG draws. *)
val next : sampler -> t

(** [sample ~count ~seed] is the first [count] paths of the stream. *)
val sample : count:int -> seed:int -> t list

(** [kind path] is ["lossy"], ["policed"] or ["buffered"]. *)
val kind : t -> string

(** [describe path] — the figure/table profile cell, e.g. ["48M/50ms/lossy"]. *)
val describe : t -> string

type outcome = {
  o_tput : float;  (** mean throughput over [8 s, horizon], bps *)
  o_rtt : float;  (** mean RTT over the same window, seconds *)
  o_violations : int;  (** invariant violations; [0] when not monitored *)
}

(** [run p path scheme ~seed] simulates one scheme over one path: the
    bottleneck is built from the path profile (droptail buffer, optional
    random loss and policing), background WAN load is attached, and the
    scheme's flow runs to the profile-scaled horizon.

    @param trace the run's collector (installed on engine and bottleneck)
    @param watchdog polled once per simulated second; raise to abort the
           case (the sweep's wall-clock budget)
    @param invariants run the {!Nimbus_metrics.Invariant} monitor and report
           its violation count (default off) *)
val run :
  ?trace:Nimbus_trace.Trace.t ->
  ?watchdog:(unit -> unit) ->
  ?invariants:bool ->
  Common.profile ->
  t ->
  Common.scheme ->
  seed:int ->
  outcome
