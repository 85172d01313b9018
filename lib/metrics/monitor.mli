(** Periodic probes that turn live simulation state into {!Series.t}. *)

(** [probe engine ~interval ~until f] samples [f ()] every [interval],
    from [interval] after now and through [until], into a fresh series. *)
val probe :
  Nimbus_sim.Engine.t ->
  interval:Units.Time.t ->
  until:Units.Time.t ->
  (unit -> float) ->
  Series.t

(** [throughput engine ~interval ~until counter] converts a cumulative
    byte counter into a bits-per-second series (delta per interval). *)
val throughput :
  Nimbus_sim.Engine.t ->
  interval:Units.Time.t ->
  until:Units.Time.t ->
  (unit -> int) ->
  Series.t

(** [flow_throughput engine flow ~interval ~until] — receiver goodput of one flow. *)
val flow_throughput :
  Nimbus_sim.Engine.t ->
  Nimbus_cc.Flow.t ->
  interval:Units.Time.t ->
  until:Units.Time.t ->
  unit ->
  Series.t

(** [queue_delay engine bottleneck ~interval ~until] — instantaneous bottleneck
    queueing delay in seconds. *)
val queue_delay :
  Nimbus_sim.Engine.t ->
  Nimbus_sim.Bottleneck.t ->
  interval:Units.Time.t ->
  until:Units.Time.t ->
  unit ->
  Series.t

(** [flow_rtt engine flow ~interval ~until] — the flow's latest RTT sample in
    seconds ([nan] before traffic). *)
val flow_rtt :
  Nimbus_sim.Engine.t ->
  Nimbus_cc.Flow.t ->
  interval:Units.Time.t ->
  until:Units.Time.t ->
  unit ->
  Series.t
