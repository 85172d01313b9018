(** Deterministic pseudo-random streams (splitmix64).

    Every stochastic element of a simulation draws from a stream seeded by the
    experiment, so each table in the evaluation is reproducible bit-for-bit.
    [split] derives an independent stream, letting subsystems (flow arrivals,
    packet sizes, election coin flips, ...) consume randomness without
    perturbing each other.

    {b Register forms.}  A draw named [*_to] ([range_to], [exponential_to],
    [lognormal_to], [pareto_to]) takes a register, a [Float.Array.t] of at
    least one slot, and writes the draw into its slot 0 instead of
    returning it.  A float returned across a module boundary is a fresh
    2-word box (DESIGN.md §13, the [-opaque] rule); written in place it is
    not, and the caller reads it back unboxed or hands the register on
    (the engine's {!Engine.key}, for a gap to schedule).  [range] also
    has a value form; the two share one inlined core, so both consume the
    stream alike and give the same bits.  Float parameters still cross as
    boxes, so pass ones that already exist (a constant, or a field of a
    record that is not all floats). *)

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

(** [range_to t ~lo ~hi reg] writes [range t ~lo ~hi] into slot 0 of
    [reg]. *)
val range_to : t -> lo:float -> hi:float -> Float.Array.t -> unit

(** [bool t ~p] is [true] with probability [p]. *)
val bool : t -> p:float -> bool

(** [bool_at t ps i] is [bool t ~p:(Float.Array.get ps i)], the same draw.
    A probability computed by a caller in another module and passed as
    [~p] is boxed, two words per draw; read in place from [ps], it is
    not. *)
val bool_at : t -> Float.Array.t -> int -> bool

(** [exponential_to t ~mean reg] writes a sample of Exp with the given
    mean into slot 0 of [reg].  @raise Invalid_argument if [mean <= 0]. *)
val exponential_to : t -> mean:float -> Float.Array.t -> unit

(** [lognormal_to t ~mu ~sigma reg] writes [exp (mu + sigma·N(0,1))] into
    slot 0 of [reg]. *)
val lognormal_to : t -> mu:float -> sigma:float -> Float.Array.t -> unit

(** [pareto_to t ~shape ~scale reg] writes a sample of a Pareto( shape )
    with minimum [scale] into slot 0 of [reg]; heavy-tailed for
    [shape <= 2].  @raise Invalid_argument if either parameter is
    non-positive. *)
val pareto_to : t -> shape:float -> scale:float -> Float.Array.t -> unit
