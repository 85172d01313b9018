(** DASH-style adaptive video client, used as cross traffic (§8.1, Fig. 11).

    The client downloads fixed-duration chunks over a Cubic transport,
    choosing a bitrate from its ladder with a standard hybrid rule
    (throughput estimate scaled by a safety factor, overridden near buffer
    limits). Whether such a stream behaves as elastic or inelastic cross
    traffic depends on where the ladder tops out relative to the fair share:
    a 4K ladder is network-limited (elastic), a 1080p ladder leaves the
    client idle between chunks (application-limited, inelastic). *)

type t

(** Bitrate ladders. *)
val ladder_4k : Units.Rate.t array

val ladder_1080p : Units.Rate.t array

(** [create topo ~route ~ladder ()] starts a client whose transport flow
    runs along [route], on the topology's engine.
    @param chunk_duration media time per chunk (default 4 s)
    @param prop_rtt transport propagation RTT (default 50 ms)
    @param buffer_low start panicking below this much buffered media
           (default 8 s)
    @param buffer_high stop requesting above this (default 20 s)
    @param start absolute start time *)
val create :
  Nimbus_topology.Topology.t ->
  route:Nimbus_topology.Topology.Route.t ->
  ladder:Units.Rate.t array ->
  ?chunk_duration:Units.Time.t ->
  ?prop_rtt:Units.Time.t ->
  ?buffer_low:Units.Time.t ->
  ?buffer_high:Units.Time.t ->
  ?start:Units.Time.t ->
  unit ->
  t

(** [buffer t] — current playback buffer, in media time. *)
val buffer : t -> Units.Time.t

(** [current_bitrate t] — ladder rung of the chunk in flight (or last
    completed). *)
val current_bitrate : t -> Units.Rate.t

(** [chunks_fetched t]. *)
val chunks_fetched : t -> int

(** [rebuffer t] — cumulative stall time. *)
val rebuffer : t -> Units.Time.t

(** [flow_id t] — bottleneck accounting id of the transport flow. *)
val flow_id : t -> int
