(** Exponentially weighted moving averages.

    Watcher flows smooth their transmission rate with an EWMA whose cut-off
    sits below the pulsing frequencies, so the pulser never mistakes a watcher
    for elastic cross traffic (§6 of the paper). *)

(** The average sits in a record of floats only, which stores it unboxed.
    The types are [private] so that a caller in another module can read
    [t.s.avg] in place: {!value} returns a fresh box, as every float
    returned across a module boundary does. *)
type state = private {
  alpha : float;
  mutable avg : float;
}

type t = private {
  s : state;
  mutable initialized : bool;
}

(** [create ~alpha] with [0 < alpha <= 1]; larger [alpha] weights new samples
    more. @raise Invalid_argument outside that range. *)
val create : alpha:float -> t

(** [create_cutoff ~freq ~dt] derives alpha so the −3 dB point of the filter
    sits at [freq] Hz for samples arriving every [dt] seconds: the time
    constant is τ = 1/(2π·freq) and alpha = 1 − exp(−dt/τ). *)
val create_cutoff : freq:float -> dt:float -> t

(** [update t x] folds in sample [x]; {!value} reads the new average. The
    first sample initialises the average. It allocates nothing. *)
val update : t -> float -> unit

(** [update_at t src i] is [update t src.(i)], without the box a float
    passed across a module boundary takes. *)
val update_at : t -> Float.Array.t -> int -> unit

(** [value t] is the current average ([0.] before any sample). *)
val value : t -> float

(** [initialized t] holds after the first {!update}. *)
val initialized : t -> bool

(** [reset t] forgets all state. *)
val reset : t -> unit
