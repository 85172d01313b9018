(** The interface between the flow engine and congestion-control algorithms.

    An algorithm is a record of closures over its private state.  The engine
    feeds it per-ACK and per-loss events plus a 10 ms tick carrying rate
    estimates (mirroring the CCP reporting loop the paper's implementation
    uses).  The algorithm answers by publishing: it writes its congestion
    window and pacing rate into its {!out} record whenever its state
    changes, and the flow reads them there, as a CCP datapath reads what
    the algorithm installed instead of polling it.

    Rates, RTTs, and timestamps cross this boundary as {!Units.Rate.t} /
    {!Units.Time.t}, so an algorithm can never confuse S(t) with a duration
    or feed a window where a rate is expected. "Not yet measured" is
    [Time.unknown] / [Rate.unknown] (NaN), as in the rest of the system.
    The {!out} slots are raw floats (bytes, bits/s, seconds): a record of
    floats only stores them unboxed, so publishing and reading them
    allocates nothing.

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

(** What a controller publishes, in a record of floats only.  The
    controller owns it and writes it; the flow only reads [cwnd] and [pace]
    and writes [wake].

    Contract: the slots always hold the answers the controller's current
    state gives.  A controller writes them at the end of every hook that
    moves that state ([on_ack], [on_loss], [on_tick]) and of every other
    call that does (a reset, a mode switch), so a flow that reads them at
    any instant sees what polling the controller then would have
    returned.  A rate that moves between events is brought up to date by
    {!t.on_wake} when the flow's pacer wakes, the one time it is read. *)
type out = {
  mutable cwnd : float;
      (** the window limit in bytes; [infinity] for purely rate-paced
          algorithms *)
  mutable pace : float;
      (** the pacing rate in bits/s, finite and positive while the
          algorithm paces; NaN when it relies on pure ACK clocking
          against the window.  Once a controller has published a rate it
          does not go back to NaN (BBR's bottleneck estimate stays
          positive once it has a sample): a flow whose pacer is scheduled
          does not look at [pace] after an ACK or a tick, only when the
          pacer wakes, at most 2 ms later. *)
  mutable wake : float;
      (** the instant, in seconds, of the pacer wake in progress: a paced
          flow writes it just before it calls {!t.on_wake} *)
}

(** [out ~cwnd ~pace] is a fresh record with [wake = 0]. *)
val out : cwnd:float -> pace:float -> out

type t = {
  name : string;
  on_ack : ack -> unit;
  on_loss : loss -> unit;
  on_tick : (tick -> unit) option;
  out : out;
  on_wake : (unit -> unit) option;
      (** Called on every pacer wake, after the flow wrote the instant into
          [out.wake] and before it reads [out.pace], for an algorithm whose
          rate moves between its events (the Nimbus pulser's waveform).  It
          must not change whether [out.pace] is NaN. *)
  cwnd : unit -> Units.Bytes.t;
      (** [out.cwnd], boxed.  The flow never calls it; it is kept for code
          that rebuilds the record with [{ cc with ... }]. *)
  pacing_rate : unit -> Units.Rate.t option;
      (** [None] if [out.pace] is NaN, else [Some out.pace]; kept like
          [cwnd]. *)
}

(** [make ~name ~on_ack ~on_loss ?on_tick ?on_wake out] is the record every
    controller builds: its [cwnd] and [pacing_rate] read [out]. *)
val make :
  name:string ->
  on_ack:(ack -> unit) ->
  on_loss:(loss -> unit) ->
  ?on_tick:(tick -> unit) ->
  ?on_wake:(unit -> unit) ->
  out ->
  t
