(** BBR v1 (Cardwell et al.), simplified: windowed-max bottleneck-bandwidth
    and windowed-min RTT estimation, Startup/Drain/ProbeBW gain cycling,
    periodic ProbeRTT, pacing at [gain·btl_bw] with in-flight capped at
    [2·btl_bw·rt_prop].

    Matches the behaviours the paper relies on: deep buffers make BBR
    CWND-limited (hence ACK-clocked and classified elastic); shallow buffers
    leave it rate-paced and slower-than-RTT reactive (classified inelastic,
    Appendix C). *)

type t

(** [create ()] is a fresh instance sending 1500-byte segments. *)
val create : unit -> t

val cc : t -> Cc_types.t

(** [btl_bw t] is the current bottleneck-bandwidth estimate. *)
val btl_bw : t -> Units.Rate.t

val make : unit -> Cc_types.t
