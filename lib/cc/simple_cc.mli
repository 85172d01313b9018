(** Degenerate controllers used as cross traffic and in tests. *)

(** [const_rate ~rate] paces at a fixed rate forever — a reliable
    constant-bit-rate stream ("Const. stream" in Table 1).
    @raise Invalid_argument if [rate] is not finite and positive. *)
val const_rate : rate:Units.Rate.t -> Cc_types.t

(** [fixed_window ~segments ()] keeps a constant window of [segments]
    1500-byte segments — elastic and ACK-clocked without any adaptation
    ("Fixed window" in Table 1).
    @raise Invalid_argument if [segments <= 0]. *)
val fixed_window : segments:int -> unit -> Cc_types.t
