type ack_times = {
  mutable now : Units.Time.t;
  mutable rtt : Units.Time.t;
  mutable min_rtt : Units.Time.t;
  mutable srtt : Units.Time.t;
}

type ack = {
  times : ack_times;
  mutable seq : int;
  bytes : int;
  mutable inflight_bytes : int;
  mutable delivered_bytes : int;
}

type loss_times = { mutable now : Units.Time.t }

type loss = {
  times : loss_times;
  mutable seq : int;
  mutable bytes : int;
  mutable inflight_bytes : int;
  mutable kind : [ `Dupack | `Timeout ];
}

type tick = {
  mutable now : Units.Time.t;
  mutable send_rate : Units.Rate.t;
  mutable recv_rate : Units.Rate.t;
  mutable rtt : Units.Time.t;
  mutable srtt : Units.Time.t;
  mutable min_rtt : Units.Time.t;
  mutable inflight_bytes : int;
  mutable delivered_bytes : int;
  mutable lost_packets : int;
}

type t = {
  name : string;
  on_ack : ack -> unit;
  on_loss : loss -> unit;
  on_tick : (tick -> unit) option;
  cwnd : unit -> Units.Bytes.t;
  pacing_rate : unit -> Units.Rate.t option;
}
