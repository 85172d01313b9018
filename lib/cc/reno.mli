(** TCP NewReno: slow start, AIMD congestion avoidance, fast-recovery-style
    single cut per round trip. The paper's second TCP-competitive option. *)

type t

(** [create ()] is a fresh instance; [cc t] adapts it to the engine
    interface. [t] is exposed so Nimbus can reset the window on a mode
    switch.  Segments are 1500 bytes and the initial window is 10
    segments. *)
val create : unit -> t

val cc : t -> Cc_types.t

val cwnd_bytes : t -> Units.Bytes.t

(** [reset_cwnd t bytes] forces the window and leaves slow start. *)
val reset_cwnd : t -> Units.Bytes.t -> unit

(** [make ()] is [cc (create ())]. *)
val make : unit -> Cc_types.t
