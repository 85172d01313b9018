(** Deterministic pseudo-random streams (splitmix64).

    Every stochastic element of a simulation draws from a stream seeded by the
    experiment, so each table in the evaluation is reproducible bit-for-bit.
    [split] derives an independent stream, letting subsystems (flow arrivals,
    packet sizes, election coin flips, ...) consume randomness without
    perturbing each other. *)

type t

(** [create seed] starts a stream from an integer seed. *)
val create : int -> t

(** [split t] derives a new independent stream; advances [t]. *)
val split : t -> t

(** [bits t] is the next raw 64-bit output. *)
val bits : t -> int64

(** [int t bound] is uniform in [0, bound). @raise Invalid_argument if
    [bound <= 0]. *)
val int : t -> int -> int

(** [uniform t] is uniform in [0, 1). *)
val uniform : t -> float

(** [float t x] is uniform in [0, x). *)
val float : t -> float -> float

(** [range t ~lo ~hi] is uniform in [lo, hi). *)
val range : t -> lo:float -> hi:float -> float

(** [bool t ~p] is [true] with probability [p]. *)
val bool : t -> p:float -> bool

(** [bool_at t ps i] is [bool t ~p:(Float.Array.get ps i)], the same draw.
    A probability computed by a caller in another module and passed as
    [~p] is boxed, two words per draw; read in place from [ps], it is
    not. *)
val bool_at : t -> Float.Array.t -> int -> bool

(** [exponential t ~mean] samples Exp with the given mean. *)
val exponential : t -> mean:float -> float

(** [lognormal t ~mu ~sigma] is [exp (mu + sigma·N(0,1))]. *)
val lognormal : t -> mu:float -> sigma:float -> float

(** [pareto t ~shape ~scale] samples a Pareto( shape ) with minimum [scale];
    heavy-tailed for [shape <= 2]. *)
val pareto : t -> shape:float -> scale:float -> float
