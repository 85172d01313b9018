module Engine = Nimbus_sim.Engine
module Topology = Nimbus_topology.Topology
module Flow = Nimbus_cc.Flow
module Cubic = Nimbus_cc.Cubic
module Ewma = Nimbus_dsp.Ewma
module Time = Units.Time
module Rate = Units.Rate

let ladder_4k = Array.map Rate.bps [| 10e6; 15e6; 20e6; 25e6; 32e6 |]

let ladder_1080p = Array.map Rate.bps [| 1.5e6; 3e6; 4.5e6; 6e6; 8e6 |]

let poll_interval = 0.05

(* media time per chunk *)
let chunk_duration = Time.to_secs (Time.secs 4.)

let prop_rtt = Time.ms 50.

(* below this much buffered media the client drops to the lowest bitrate *)
let buffer_low = Time.to_secs (Time.secs 8.)

(* above it the client stops requesting *)
let buffer_high = Time.to_secs (Time.secs 20.)

(* Internal state stays raw float (bits/s, seconds) — the typed boundary is
   the .mli. *)
type t = {
  engine : Engine.t;
  flow : Flow.t;
  ladder : float array;
  tput : Ewma.t; (* throughput estimate, bps *)
  mutable buffer : float; (* buffered media seconds *)
  mutable playing : bool;
  mutable bitrate : float;
  mutable chunk_target : int; (* received_bytes threshold ending the chunk *)
  mutable chunk_started : float;
  mutable chunk_bytes : int;
  mutable downloading : bool;
  mutable chunks : int;
  mutable rebuffer : float;
  mutable last_poll : float;
}

let buffer t = Time.secs t.buffer

let current_bitrate t = Rate.bps t.bitrate

let chunks_fetched t = t.chunks

let rebuffer t = Time.secs t.rebuffer

let flow_id t = Flow.id t.flow

(* Hybrid rate selection: highest rung under 80% of the throughput estimate,
   clamped by buffer state. *)
let choose_bitrate t =
  let est = Ewma.value t.tput in
  let safe = if Ewma.initialized t.tput then 0.8 *. est else t.ladder.(0) in
  let pick = ref t.ladder.(0) in
  Array.iter (fun r -> if r <= safe then pick := r) t.ladder;
  if t.buffer < buffer_low then t.ladder.(0) else !pick

let request_chunk t =
  let now = Time.to_secs (Engine.now t.engine) in
  t.bitrate <- choose_bitrate t;
  (* whole packets: the transport sends 1500-byte segments, and a partial
     trailing packet would strand bytes below the send threshold forever *)
  let raw = int_of_float (t.bitrate *. chunk_duration /. 8.) in
  t.chunk_bytes <- (raw + 1499) / 1500 * 1500;
  t.chunk_target <- Flow.received_bytes t.flow + t.chunk_bytes;
  t.chunk_started <- now;
  t.downloading <- true;
  Flow.supply t.flow t.chunk_bytes

let rec poll t =
  let now = Time.to_secs (Engine.now t.engine) in
  let dt = now -. t.last_poll in
  t.last_poll <- now;
  (* playback drains the buffer; an empty buffer is a stall *)
  if t.playing then begin
    if t.buffer > 0. then t.buffer <- Float.max 0. (t.buffer -. dt)
    else t.rebuffer <- t.rebuffer +. dt
  end;
  if t.downloading && Flow.received_bytes t.flow >= t.chunk_target then begin
    let elapsed = Float.max (now -. t.chunk_started) 1e-3 in
    Ewma.update t.tput (float_of_int (t.chunk_bytes * 8) /. elapsed);
    t.buffer <- t.buffer +. chunk_duration;
    t.chunks <- t.chunks + 1;
    t.downloading <- false;
    if not t.playing && t.buffer >= 2. *. chunk_duration then
      t.playing <- true
  end;
  if (not t.downloading) && t.buffer < buffer_high then request_chunk t;
  Engine.schedule_in t.engine (Time.secs poll_interval) (fun () -> poll t)

let create topo ~route ~ladder () =
  if Array.length ladder = 0 then invalid_arg "Video.create: empty ladder";
  let engine = Topology.engine topo in
  let start = Engine.now engine in
  let flow =
    Flow.create_via topo ~route ~cc:(Cubic.make ()) ~prop_rtt
      ~source:Flow.App_limited ()
  in
  let ladder = Array.map Rate.to_bps ladder in
  let start_s = Time.to_secs start in
  let t =
    { engine; flow; ladder; tput = Ewma.create ~alpha:0.3;
      buffer = 0.; playing = false; bitrate = ladder.(0); chunk_target = 0;
      chunk_started = start_s; chunk_bytes = 0; downloading = false;
      chunks = 0; rebuffer = 0.; last_poll = start_s }
  in
  Engine.schedule_at engine start (fun () ->
      request_chunk t;
      Engine.schedule_in engine (Time.secs poll_interval) (fun () -> poll t));
  t
