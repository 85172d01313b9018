(** BasicDelay, the paper's delay-controlling rule (Eq. 4):

    [rate ← S + α·(µ − S − z) + (β·µ/x)·(x_min + d_t − x)]

    where [S] is the measured send rate, [z = µ·S/R − S] the cross-traffic
    estimate, [x] the current RTT, [x_min] the propagation RTT, and [d_t] a
    target queueing delay that keeps the bottleneck queue from emptying (the
    ẑ estimator needs a busy link). Rate-paced, window-capped at 2·rate·RTT.

    Usable standalone (the "Nimbus delay" scheme of Appendix A) and as
    Nimbus's default delay-mode algorithm. *)

type t

(** [create ~mu ()] starts at µ/10 with α = 0.8, β = 0.5 and
    d_t = 12.5 ms.
    @param mu bottleneck link rate
    @raise Invalid_argument if [mu] is not finite and positive *)
val create : mu:Units.Rate.t -> unit -> t

(** [cc t] adapts [t] to the engine interface: its [out.pace] is the
    controlled rate, and its [out.cwnd] the 2·rate·RTT cap. *)
val cc : t -> Cc_types.t

(** [set_rate t r] forces the rate (mode-switch initialisation). *)
val set_rate : t -> Units.Rate.t -> unit

(** [set_mu t mu] updates the link-rate estimate the rule uses — needed when
    µ is learned online rather than configured. *)
val set_mu : t -> Units.Rate.t -> unit

(** [update t tick] applies Eq. 4 given a flow tick; exposed so Nimbus can
    drive it directly while owning the pacing. *)
val update : t -> Cc_types.tick -> unit

val make : mu:Units.Rate.t -> unit -> Cc_types.t
