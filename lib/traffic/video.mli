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

(** [create topo ~route ~ladder ()] starts a client now, whose transport
    flow runs along [route] with a 50 ms propagation RTT, on the topology's
    engine.  Chunks hold 4 s of media; below 8 s of buffered media the
    client drops to the lowest bitrate, and above 20 s it stops
    requesting. *)
val create :
  Nimbus_topology.Topology.t ->
  route:Nimbus_topology.Topology.Route.t ->
  ladder:Units.Rate.t array ->
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
