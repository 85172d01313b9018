(** Durations and absolute simulation timestamps, in seconds.

    [t] is a [private float]: reading one back as a float is a free upcast
    ([(x :> float)]), but every construction must name its unit
    ([Time.secs 5.], [Time.ms 10.]), so a value in milliseconds or hertz can
    never silently flow into an API expecting seconds.

    The codebase's "not yet measured" sentinel is NaN; {!unknown} and
    {!is_known} make that convention explicit. Constructors are total (NaN
    is a legal payload); {!Rate.bps_exn} checks a configured link rate. *)

type t = private float

(** {1 Constructors} *)

val secs : float -> t

val ms : float -> t

val us : float -> t

val of_float : float -> t

(** {1 Accessors} *)

val to_secs : t -> float

val to_ms : t -> float

val to_float : t -> float

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
