(** Durations and absolute simulation timestamps, in seconds.

    [t] is a [private float]: reading one back as a float is a free upcast
    ([(x :> float)]), but every construction must name its unit
    ([Time.secs 5.], [Time.ms 10.]), so a value in milliseconds or hertz can
    never silently flow into an API expecting seconds.

    The codebase's "not yet measured" sentinel is NaN; {!unknown} and
    {!is_known} make that convention explicit. Constructors are total (NaN
    is a legal payload); {!Rate.bps_exn} checks a configured link rate. *)

type t = private float

(** {1 Constructors}

    The four conversions in seconds are identity primitives: they compile
    to nothing even across the [-opaque] module boundary, so wrapping or
    unwrapping a float in seconds never boxes it (DESIGN.md §13). *)

external secs : float -> t = "%identity"

val ms : float -> t

val us : float -> t

external of_float : float -> t = "%identity"

(** {1 Accessors} *)

external to_secs : t -> float = "%identity"

val to_ms : t -> float

external to_float : t -> float = "%identity"

(** {1 Constants and predicates} *)

val zero : t

(** [unknown] is the NaN sentinel ("no sample yet"). *)
val unknown : t

(** [is_known x] is [not (Float.is_nan (x :> float))]. *)
val is_known : t -> bool

val is_finite : t -> bool

(** {1 Arithmetic} *)

val add : t -> t -> t

val sub : t -> t -> t

val abs : t -> t

(** [scale k x] is the duration [k·x]. *)
val scale : float -> t -> t

(** [ratio a b] is the dimensionless quotient [a/b]. *)
val ratio : t -> t -> float

val min : t -> t -> t

val max : t -> t -> t

val clamp : lo:t -> hi:t -> t -> t

(** {1 Comparison — monomorphic, so the float-compare lint stays quiet} *)

val compare : t -> t -> int

val equal : t -> t -> bool

val ( < ) : t -> t -> bool

val ( <= ) : t -> t -> bool

val ( > ) : t -> t -> bool

val ( >= ) : t -> t -> bool
