(** TCP NewReno: slow start, AIMD congestion avoidance, fast-recovery-style
    single cut per round trip.  An elastic cross-traffic flow and baseline
    in the paper's evaluation. *)

type t

(** [create ()] is a fresh instance; [cc t] adapts it to the engine
    interface, and [cwnd_bytes t] reads its window.  Segments are 1500
    bytes and the initial window is 10 segments. *)
val create : unit -> t

val cc : t -> Cc_types.t

val cwnd_bytes : t -> Units.Bytes.t

(** [make ()] is [cc (create ())]. *)
val make : unit -> Cc_types.t
