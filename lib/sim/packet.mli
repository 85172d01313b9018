(** Packets as they traverse the bottleneck.

    A packet belongs to one flow and carries its payload size: four words
    and a header, the one allocation a sender makes per packet.  Nothing
    downstream keeps timestamps in it — the sender keeps its own send times
    and a link its own enqueue times.  ACKs are not materialised as packets
    on a reverse queue: the receiver leg is modelled as a pure delay (the
    paper's single-bottleneck network model, Fig. 2), so acknowledgements
    are scheduled events carrying the data packet back. *)

type t = {
  flow : int;  (** flow identifier *)
  seq : int;  (** per-flow sequence number *)
  size : int;  (** bytes on the wire *)
  mutable ecn : bool;
      (** congestion-experienced mark — set by an ECN-enabled AQM instead
          of dropping. Cleared at creation; never cleared in flight. *)
}

(** Conventional data packet size, in bytes. *)
val default_data_size : int

(** [make ~flow ~seq ~size ~now ()] is a fresh packet with no ECN mark.
    [now] is ignored: packets no longer carry a send time.  The argument
    stays only so that existing callers compile unchanged. *)
val make : flow:int -> seq:int -> size:int -> now:Units.Time.t -> unit -> t
