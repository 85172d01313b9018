(** Packets as they traverse the bottleneck.

    A packet belongs to one flow, carries its payload size, and collects
    {!Units.Time.t} timestamps at each stage. ACKs are not materialised as
    packets on a reverse queue: the receiver leg is modelled as a pure delay
    (the paper's single-bottleneck network model, Fig. 2), so
    acknowledgements are scheduled callbacks carrying the metadata a real
    ACK would. *)

type t = {
  flow : int;  (** flow identifier *)
  seq : int;  (** per-flow sequence number *)
  size : int;  (** bytes on the wire *)
  mutable sent_at : Units.Time.t;
      (** handed to the network by the sender *)
  mutable enqueued_at : Units.Time.t;
      (** arrival at the bottleneck queue; [Time.unknown] until then *)
  mutable dequeued_at : Units.Time.t;
      (** finished serialisation at the bottleneck; [Time.unknown] until
          then *)
  retransmission : bool;
  mutable ecn : bool;
      (** congestion-experienced mark — set by an ECN-enabled AQM instead
          of dropping. Cleared at creation; never cleared in flight. *)
}

(** Conventional data packet size, in bytes. *)
val default_data_size : int

(** [make ~flow ~seq ~size ~now ?retransmission ()] is a fresh packet with
    [sent_at = now], unset downstream timestamps and no ECN mark. *)
val make :
  flow:int ->
  seq:int ->
  size:int ->
  now:Units.Time.t ->
  ?retransmission:bool ->
  unit ->
  t

(** [queueing_delay p] is the time [p] spent at the bottleneck (enqueue to
    end of serialisation); [Time.unknown] before dequeue. *)
val queueing_delay : t -> Units.Time.t
