(** The interface between the flow engine and congestion-control algorithms.

    An algorithm is a record of closures over its private state. The engine
    feeds it per-ACK and per-loss events plus a 10 ms tick carrying rate
    estimates (mirroring the CCP reporting loop the paper's implementation
    uses), and reads back a congestion window and an optional pacing rate.

    Rates, RTTs, and timestamps cross this boundary as {!Units.Rate.t} /
    {!Units.Time.t}, so an algorithm can never confuse S(t) with a duration
    or feed a window where a rate is expected. "Not yet measured" is
    [Time.unknown] / [Rate.unknown] (NaN), as in the rest of the system.

    Each event record ({!ack}, {!loss}, {!tick}) belongs to the flow, which
    refills it for every event, so that delivering one allocates nothing
    but the boxes of changed times and rates.  A controller may keep a
    field's value (those are immutable), never the record. *)

(** The time fields of an {!ack}: a record of floats only, which OCaml
    stores unboxed, so refilling it for every ACK allocates nothing. *)
type ack_times = {
  mutable now : Units.Time.t;
  mutable rtt : Units.Time.t;
      (** latest sample: from this packet unless it was a retransmission
          (Karn's rule), then the previous one *)
  mutable min_rtt : Units.Time.t;  (** minimum observed so far *)
  mutable srtt : Units.Time.t;  (** smoothed RTT *)
}

(** Event delivered for every acknowledged packet.  A flow refills one
    record for each of its ACKs, so a controller reads the fields during
    [on_ack] and must not keep the record itself. *)
type ack = {
  times : ack_times;
  mutable seq : int;  (** sequence number of the acked packet *)
  bytes : int;  (** payload bytes acknowledged *)
  mutable inflight_bytes : int;  (** after this ack *)
  mutable delivered_bytes : int;  (** cumulative *)
}

(** The time field of a {!loss}: like {!ack_times}, a record of floats
    only, so refilling it for every loss boxes nothing. *)
type loss_times = { mutable now : Units.Time.t }

(** Loss signal. [`Dupack] approximates fast retransmit; [`Timeout] is an RTO
    where the whole window was declared lost.  Like {!ack}, a flow refills
    one record for each of its losses, so a controller reads the fields
    during [on_loss] and must not keep the record itself. *)
type loss = {
  times : loss_times;
  mutable seq : int;
  mutable bytes : int;
  mutable inflight_bytes : int;
  mutable kind : [ `Dupack | `Timeout ];
}

(** Periodic report. [send_rate]/[recv_rate] are S(t)/R(t) of Eq. 2: both
    measured over the same trailing window of acknowledged packets;
    [Rate.unknown] until enough packets have been acknowledged.  Like
    {!ack}, a flow refills one record for each of its ticks, so a
    controller reads the fields during [on_tick] and must not keep the
    record itself. *)
type tick = {
  mutable now : Units.Time.t;
  mutable send_rate : Units.Rate.t;
  mutable recv_rate : Units.Rate.t;
  mutable rtt : Units.Time.t;
      (** latest sample; [Time.unknown] before first ack *)
  mutable srtt : Units.Time.t;
  mutable min_rtt : Units.Time.t;
  mutable inflight_bytes : int;
  mutable delivered_bytes : int;
  mutable lost_packets : int;  (** cumulative *)
}

type t = {
  name : string;
  on_ack : ack -> unit;
  on_loss : loss -> unit;
  on_tick : (tick -> unit) option;
  cwnd : unit -> Units.Bytes.t;
      (** current window limit; [Bytes.bytes infinity] for purely rate-paced
          algorithms *)
  pacing_rate : unit -> Units.Rate.t option;
      (** [Some r] paces transmissions at [r]; [None] relies on pure ACK
          clocking against the window.

          Contract: once it has answered [Some _], it never answers [None]
          again (BBR's bottleneck estimate stays positive once it has a
          sample).  A flow relies on this: while its pacer is scheduled it
          does not ask after an ACK or a tick, and reads the rate only
          when the pacer wakes (at most 2 ms later), so the hook runs
          about once per wake, not once per ACK. *)
}
