(** Frequencies in hertz — pulse fundamentals, FFT bins, sample rates.

    Phantom-typed [private float]; see {!Time} for the conventions (free
    upcast to [float], NaN as the "unknown" sentinel). *)

type t = private float

(** {1 Constructors} *)

val hz : float -> t

val of_float : float -> t

(** {1 Accessors} *)

val to_hz : t -> float

val to_float : t -> float

(** {1 Constants and predicates} *)

val unknown : t

val is_known : t -> bool

(** {1 Arithmetic} *)

val scale : float -> t -> t

(** [ratio a b] is the dimensionless quotient [a/b]. *)
val ratio : t -> t -> float

val min : t -> t -> t

val max : t -> t -> t

(** {1 Cross-unit} *)

(** [period f] is [1/f] seconds. *)
val period : t -> Time.t

(** {1 Comparison} *)

val compare : t -> t -> int

val equal : t -> t -> bool

val ( < ) : t -> t -> bool

val ( <= ) : t -> t -> bool

val ( > ) : t -> t -> bool

val ( >= ) : t -> t -> bool
