(** PCC-Vivace (Dong et al., NSDI '18), simplified: rate-based online
    learning. The sender alternates paired monitor intervals at rates
    [r·(1+ε)] and [r·(1−ε)], scores each with the Vivace utility
    [u = x^0.9 − b·x·max(0, dRTT/dt) − c·x·loss_rate] (x in Mbit/s), and
    moves the rate along the utility gradient with a confidence amplifier.

    Because updates happen on monitor-interval boundaries rather than per
    ACK, Vivace does not react within an RTT — the property behind the
    paper's Table 1 (classified inelastic at f_p = 5 Hz) and Appendix F
    (classified elastic once the pulse slows to 2 Hz). *)

type t

(** [create ()] starts at 1 Mbit/s with a probe amplitude ε of 0.05 and
    1500-byte segments. *)
val create : unit -> t

(** [cc t] adapts [t] to the engine interface: its [out.pace] is the
    current interval's probing rate, and its [out.cwnd] a 3·rate·RTT
    cap. *)
val cc : t -> Cc_types.t

val make : unit -> Cc_types.t
