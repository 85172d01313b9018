(** The interface between the flow engine and congestion-control algorithms.

    An algorithm is a record of closures over its private state. The engine
    feeds it per-ACK and per-loss events plus a 10 ms tick carrying rate
    estimates (mirroring the CCP reporting loop the paper's implementation
    uses), and reads back a congestion window and an optional pacing rate.

    Rates, RTTs, and timestamps cross this boundary as {!Units.Rate.t} /
    {!Units.Time.t}, so an algorithm can never confuse S(t) with a duration
    or feed a window where a rate is expected. "Not yet measured" is
    [Time.unknown] / [Rate.unknown] (NaN), as in the rest of the system. *)

(** Event delivered for every acknowledged packet. *)
type ack = {
  now : Units.Time.t;
  seq : int;  (** sequence number of the acked packet *)
  bytes : int;  (** payload bytes acknowledged *)
  rtt : Units.Time.t;  (** sample from this packet *)
  min_rtt : Units.Time.t;  (** minimum observed so far *)
  srtt : Units.Time.t;  (** smoothed RTT *)
  inflight_bytes : int;  (** after this ack *)
  delivered_bytes : int;  (** cumulative *)
}

(** Loss signal. [`Dupack] approximates fast retransmit; [`Timeout] is an RTO
    where the whole window was declared lost. *)
type loss = {
  now : Units.Time.t;
  seq : int;
  bytes : int;
  inflight_bytes : int;
  kind : [ `Dupack | `Timeout ];
}

(** Periodic report. [send_rate]/[recv_rate] are S(t)/R(t) of Eq. 2: both
    measured over the same trailing window of acknowledged packets;
    [Rate.unknown] until enough packets have been acknowledged. *)
type tick = {
  now : Units.Time.t;
  send_rate : Units.Rate.t;
  recv_rate : Units.Rate.t;
  rtt : Units.Time.t;  (** latest sample; [Time.unknown] before first ack *)
  srtt : Units.Time.t;
  min_rtt : Units.Time.t;
  inflight_bytes : int;
  delivered_bytes : int;
  lost_packets : int;  (** cumulative *)
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
          clocking against the window *)
}
