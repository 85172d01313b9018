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

type out = {
  mutable cwnd : float;
  mutable pace : float;
  mutable wake : float;
}

let out ~cwnd ~pace = { cwnd; pace; wake = 0. }

type t = {
  name : string;
  on_ack : ack -> unit;
  on_loss : loss -> unit;
  on_tick : (tick -> unit) option;
  out : out;
  on_wake : (unit -> unit) option;
  cwnd : unit -> Units.Bytes.t;
  pacing_rate : unit -> Units.Rate.t option;
}

let make ~name ~on_ack ~on_loss ?on_tick ?on_wake out =
  { name; on_ack; on_loss; on_tick; out; on_wake;
    cwnd = (fun () -> Units.Bytes.bytes out.cwnd);
    pacing_rate =
      (fun () ->
        if Float.is_nan out.pace then None else Some (Units.Rate.bps out.pace))
  }
