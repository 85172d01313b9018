(** Copa (Arun & Balakrishnan, NSDI '18).

    Default mode targets a sending rate of [1/(δ·d_q)] packets per second,
    where [d_q] is the standing queueing delay, steering the window with a
    doubling velocity parameter. The mode detector expects the queue to
    become nearly empty at least once every 5 RTTs when only Copa flows
    share the link; when that fails it switches to a TCP-competitive mode
    that performs AIMD on [1/δ].

    Its RTT statistics are two {!Nimbus_dsp.Extremum} filters fed the same
    samples: the min and the max over 10 s, and the standing RTT (the min
    over the last [srtt/2]) as the min filter's standing query, refreshed
    at most once per 10 ms.

    The paper's §8.2 and Appendix D probe exactly the failure modes of this
    detector (high inelastic load; slowly ramping high-RTT elastic flows), so
    the empty-queue rule is implemented faithfully. *)

type t

(** [create ()] is a fresh Copa instance.
    @param switching enable the competitive-mode detector (default [true]);
           [false] pins Copa to its default mode, the configuration Nimbus
           can adopt as a delay-control algorithm.
    Segments are 1500 bytes and the default-mode δ is 0.5. *)
val create : ?switching:bool -> unit -> t

val cc : t -> Cc_types.t

val cwnd_bytes : t -> Units.Bytes.t

(** [in_competitive_mode t] — classification ground signal for the accuracy
    experiments comparing Copa's detector with Nimbus's (§8.2). *)
val in_competitive_mode : t -> bool

(** [reset_cwnd t bytes] forces the window (mode switching support). *)
val reset_cwnd : t -> Units.Bytes.t -> unit

val make : ?switching:bool -> unit -> Cc_types.t
