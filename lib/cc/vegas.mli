(** TCP Vegas (Brakmo et al.): keeps the estimated backlog between [alpha]
    and [beta] segments by comparing expected and actual throughput once per
    round trip. A delay-controlling baseline in the paper's evaluation and a
    supported Nimbus delay-mode algorithm.  Segments are 1500 bytes, the
    initial window is 4 segments, [alpha] is 2 and [beta] 4. *)

type t

val create : unit -> t

val cc : t -> Cc_types.t

val cwnd_bytes : t -> Units.Bytes.t

(** [reset_cwnd t bytes] forces the window (mode switching). *)
val reset_cwnd : t -> Units.Bytes.t -> unit

val make : unit -> Cc_types.t
