(** Compound TCP (Tan et al.): the congestion window is the sum of a
    loss-based window (Reno behaviour) and a delay-based window that grows
    polynomially while queueing delay is low and shrinks as delay builds.
    Used as a baseline in the paper's Fig. 8 walkthrough. *)

(** [make ()] is a fresh instance sending 1500-byte segments. *)
val make : unit -> Cc_types.t
