(** TCP Cubic (Ha, Rhee, Xu): cubic window growth around the last loss point,
    with the TCP-friendly region and fast convergence. The canonical elastic,
    ACK-clocked cross traffic in the paper, and Nimbus's default
    TCP-competitive mode. *)

type t

(** [create ()] is a fresh instance; [cc t] adapts it to the engine
    interface, and its [out.cwnd] is the window.  Exposing [t] lets Nimbus
    reach inside to reset the window when switching to competitive mode
    with the rate from 5 s ago (§4.1).
    Segments are 1500 bytes, the initial window 10 segments, the cubic
    coefficient 0.4 and the multiplicative decrease factor 0.7. *)
val create : unit -> t

(** [reset t] puts [t] back in the state {!create} makes, in place, so the
    closures and slots of [cc t] serve a new flow: a reset controller and a
    fresh one fed the same events give the same windows, bit for bit.  Call it only
    once the flow that held [t] calls it no more. *)
val reset : t -> unit

val cc : t -> Cc_types.t

(** [reset_cwnd t bytes] forces the window and restarts the cubic epoch —
    used by Nimbus's mode switch. *)
val reset_cwnd : t -> Units.Bytes.t -> unit

(** [make ()] is [cc (create ())] for plain flows. *)
val make : unit -> Cc_types.t
