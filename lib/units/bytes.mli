(** Data volumes in bytes.

    Phantom-typed [private float] (volumes turn fractional the moment they
    meet a rate, e.g. pacing credit); see {!Time} for the conventions.
    Integral packet/window byte counts convert in via {!of_int}. *)

type t = private float

(** {1 Constructors} *)

val bytes : float -> t

val of_int : int -> t

(** [of_bits b] is [b/8] bytes. *)
val of_bits : float -> t

val of_float : float -> t

(** {1 Accessors} *)

val to_float : t -> float

(** [to_bits v] is [8·v]. *)
val to_bits : t -> float

(** {1 Constants} *)

val zero : t

(** {1 Arithmetic} *)

val add : t -> t -> t

val sub : t -> t -> t

val scale : float -> t -> t

val ratio : t -> t -> float

val min : t -> t -> t

val max : t -> t -> t

(** {1 Comparison} *)

val compare : t -> t -> int

val equal : t -> t -> bool

val ( < ) : t -> t -> bool

val ( <= ) : t -> t -> bool

val ( > ) : t -> t -> bool

val ( >= ) : t -> t -> bool
