(** TCP NewReno: slow start, AIMD congestion avoidance, fast-recovery-style
    single cut per round trip.  An elastic cross-traffic flow and baseline
    in the paper's evaluation. *)

type t

(** [create ()] is a fresh instance; [cc t] adapts it to the engine
    interface, and its [out.cwnd] is the window.  Segments are 1500
    bytes and the initial window is 10 segments. *)
val create : unit -> t

val cc : t -> Cc_types.t

(** [make ()] is [cc (create ())]. *)
val make : unit -> Cc_types.t
