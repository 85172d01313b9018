(** Cross-traffic rate estimation (Eq. 1):

    [ẑ(t) = µ·S(t)/R(t) − S(t)]

    Valid while the bottleneck queue is non-empty and the router serves all
    traffic FIFO: the receive share [R/µ] then equals the arrival share
    [S/(S+z)]. *)

(** [estimate ~mu ~send_rate ~recv_rate] is ẑ, clamped to [[0, mu]].

    Unknown-input contract: the result is {!Units.Rate.unknown} — i.e. [nan],
    never [+inf] — whenever either rate is unknown ([nan]) or non-positive.
    In particular a zero [recv_rate] (silent receiver, Eq. 1's denominator)
    yields [nan], not the [+inf] a literal reading of Eq. 1 would produce;
    downstream consumers test {!Units.Rate.is_known}, and an infinity would
    silently survive that test and poison max filters.
    @raise Invalid_argument if [mu <= 0]. *)
val estimate :
  mu:Units.Rate.t ->
  send_rate:Units.Rate.t ->
  recv_rate:Units.Rate.t ->
  Units.Rate.t

(** [estimate_to reg i] is the register form of {!estimate}: it reads µ,
    S and R in bits/s from [reg.(i)], [reg.(i+1)] and [reg.(i+2)] and
    writes ẑ in bits/s into [reg.(i+3)], the bits {!estimate} returns,
    without the boxes floats take across a module boundary (DESIGN.md §13),
    as {!Nimbus_sim.Rng}'s [*_to] draws do.  A Nimbus tick reads ẑ this
    way.
    @raise Invalid_argument as {!estimate} does. *)
val estimate_to : Float.Array.t -> int -> unit

(** Bottleneck-rate tracker in the style the paper's implementation uses:
    the maximum receive rate observed over a sliding window (BBR-like),
    robust to idle periods via a slow decay. *)
module Mu : sig
  type t

  (** [known rate] always reports [rate] — emulation experiments supply the
      true link rate (§8.2). *)
  val known : Units.Rate.t -> t

  (** [estimator ()] learns µ from receive-rate samples.
      @param window history depth of the max filter (default 10 s) *)
  val estimator : ?window:Units.Time.t -> unit -> t

  (** [observe t ~now ~recv_rate] feeds a sample (no-op for [known]).
      Non-finite samples — [nan] {e and} [±inf] — are discarded: the max
      filter keeps the largest sample in its window, so a single [+inf]
      observation would otherwise poison the estimate for a full window. *)
  val observe : t -> now:Units.Time.t -> recv_rate:Units.Rate.t -> unit

  (** [current t ~now] is the µ estimate; {!Units.Rate.unknown} if nothing
      observed yet.  It forgets samples older than the window without
      recomputing the estimate, which only {!observe} moves.

      Both calls cost O(1) amortized (a {!Nimbus_dsp.Extremum} max
      filter) and expect [now] not to decrease from one call to the next,
      as simulated time does not. *)
  val current : t -> now:Units.Time.t -> Units.Rate.t
end
