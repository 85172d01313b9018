(** Gilbert–Elliott two-state burst-loss process.

    A Markov chain alternates between a [good] and a [bad] state; each
    offered packet is dropped with the state's loss probability, then the
    chain takes one transition step ([p_enter]: good→bad, [p_exit]:
    bad→good). The stationary bad-state occupancy is
    [p_enter / (p_enter + p_exit)], so the long-run loss rate converges to
    {!stationary_loss} — a property the test suite checks.

    Degeneracy: with [loss_good = loss_bad = p] the process is uniform loss
    with probability [p]. The state chain draws from a stream [split] off
    [rng] at {!create} time, so in that case the drop decisions are
    bit-for-bit the Bernoulli stream [Rng.bool rng ~p] — identical to the
    bottleneck's existing [random_loss]. *)

type t

(** [create ~rng ~p_enter ~p_exit ~loss_good ~loss_bad ()] builds an
    injector. [rng] is consumed for loss draws; the state chain uses a
    stream split off it.  The chain starts in the good state.
    @raise Invalid_argument if any probability is outside [0, 1]. *)
val create :
  rng:Nimbus_sim.Rng.t ->
  p_enter:float ->
  p_exit:float ->
  loss_good:float ->
  loss_bad:float ->
  unit ->
  t

(** [drop t] decides one packet's fate and advances the chain. *)
val drop : t -> bool

(** [offered t] / [dropped t] — cumulative decision counts. *)
val offered : t -> int

val dropped : t -> int

(** [observed_loss t] is [dropped / offered] ([nan] before any decision). *)
val observed_loss : t -> float

(** [stationary_loss ~p_enter ~p_exit ~loss_good ~loss_bad] is the long-run
    expected loss rate.
    @raise Invalid_argument if a probability is outside [0, 1] or the chain
    cannot move ([p_enter + p_exit = 0]). *)
val stationary_loss :
  p_enter:float -> p_exit:float -> loss_good:float -> loss_bad:float -> float
