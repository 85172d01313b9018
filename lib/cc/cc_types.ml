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

type loss = {
  now : Units.Time.t;
  seq : int;
  bytes : int;
  inflight_bytes : int;
  kind : [ `Dupack | `Timeout ];
}

type tick = {
  now : Units.Time.t;
  send_rate : Units.Rate.t;
  recv_rate : Units.Rate.t;
  rtt : Units.Time.t;
  srtt : Units.Time.t;
  min_rtt : Units.Time.t;
  inflight_bytes : int;
  delivered_bytes : int;
  lost_packets : int;
}

type t = {
  name : string;
  on_ack : ack -> unit;
  on_loss : loss -> unit;
  on_tick : (tick -> unit) option;
  cwnd : unit -> Units.Bytes.t;
  pacing_rate : unit -> Units.Rate.t option;
}
