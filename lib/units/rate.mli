(** Data rates in bits per second — link rates µ, S(t)/R(t), ẑ, pacing.

    Phantom-typed [private float]; see {!Time} for the conventions. Rates
    are signed: pulse modulation (§3.4) adds a signed rate {e offset} to the
    base rate, so no positivity is baked into the type. Use {!bps_exn} where
    a configured rate must be finite and positive (e.g. a link rate).

    The cross-unit operators encode Eq. 2's dimensional structure once, so
    call sites stop hand-rolling [bytes·8/dt]: [volume r ~over:dt] (credit
    accrual) and [tx_time r v] (serialisation delay). *)

type t = private float

(** {1 Constructors} *)

val bps : float -> t

val mbps : float -> t

val gbps : float -> t

(** [bps_exn x] is [bps x].
    @raise Invalid_argument if [x] is not finite or [x <= 0.]. *)
val bps_exn : float -> t

val of_float : float -> t

(** {1 Accessors} *)

val to_bps : t -> float

val to_mbps : t -> float

val to_float : t -> float

(** {1 Constants and predicates} *)

val zero : t

(** [unknown] is the NaN sentinel ("no rate measured yet"). *)
val unknown : t

val is_known : t -> bool

(** {1 Arithmetic} *)

val add : t -> t -> t

val sub : t -> t -> t

val scale : float -> t -> t

(** [ratio a b] is the dimensionless quotient [a/b] (e.g. [S/µ]). *)
val ratio : t -> t -> float

val min : t -> t -> t

val max : t -> t -> t

val clamp : lo:t -> hi:t -> t -> t

(** {1 Cross-unit} *)

(** [volume r ~over:dt] is the volume moved at [r] during [dt]. *)
val volume : t -> over:Time.t -> Bytes.t

(** [tx_time r v] is the serialisation delay of [v] at rate [r]. *)
val tx_time : t -> Bytes.t -> Time.t

(** {1 Comparison} *)

val compare : t -> t -> int

val equal : t -> t -> bool

val ( < ) : t -> t -> bool

val ( <= ) : t -> t -> bool

val ( > ) : t -> t -> bool

val ( >= ) : t -> t -> bool
