module Time = Units.Time
module B = Units.Bytes
module Extremum = Nimbus_dsp.Extremum

let mss_bytes = 1500

let mss = float_of_int mss_bytes

(* the default-mode δ *)
let default_delta = 0.5

(* The state an ACK writes, in a record of floats only, which stores it
   unboxed (DESIGN.md §13, the [-opaque] rule).  [cwnd] stays a boxed field
   of [t], as Cubic's does: [Flow] reads it across the module boundary on
   every send.  The helpers that take or return a float are [@inline]: a
   float passed through a call that is not inlined is boxed. *)
type state = {
  mutable delta : float;
  mutable velocity : float;
  mutable last_direction_update : float;
  mutable cwnd_at_last_direction : float;
  mutable last_nearly_empty : float;
  mutable srtt : float;
  mutable last_loss_reaction : float;
  mutable last_delta_increase : float;
  (* the RTT statistics as of [stats_cached_at]:
     - rtt_min: minimum over the long (10 s) window, the propagation delay;
     - rtt_max: maximum over the long window, for the nearly-empty test;
     - standing: minimum over the last srtt/2, the standing queue *)
  mutable stats_cached_at : float;
  mutable rtt_min : float;
  mutable rtt_max : float;
  mutable standing : float;
}

type t = {
  switching : bool;
  mutable cwnd : float; (* bytes *)
  s : state;
  lo : Extremum.t; (* RTT over the long window *)
  hi : Extremum.t; (* the same samples *)
  mutable direction : int; (* +1 up, -1 down, 0 unknown *)
  mutable competitive : bool;
  mutable in_slow_start : bool;
}

let long_window = 10.

let create ?(switching = true) () =
  { switching; cwnd = float_of_int (mss_bytes * 10);
    s =
      { delta = default_delta; velocity = 1.; last_direction_update = 0.;
        cwnd_at_last_direction = 0.; last_nearly_empty = 0.; srtt = 0.1;
        last_loss_reaction = neg_infinity; last_delta_increase = 0.;
        stats_cached_at = neg_infinity; rtt_min = infinity; rtt_max = 0.;
        standing = infinity };
    lo = Extremum.min (); hi = Extremum.max (); direction = 0;
    competitive = false; in_slow_start = true }

let cwnd_bytes t = B.bytes t.cwnd

let in_competitive_mode t = t.competitive

let reset_cwnd t bytes =
  t.cwnd <- Float.max (2. *. mss) (B.to_float bytes);
  t.in_slow_start <- false

let[@inline] push f ~at rtt =
  let reg = Extremum.reg f in
  Float.Array.set reg 0 at;
  Float.Array.set reg 1 rtt;
  Extremum.push f

(* the extremum of [f] once the samples before [horizon] are gone *)
let[@inline] front f ~horizon =
  let reg = Extremum.reg f in
  Float.Array.set reg 0 horizon;
  Extremum.prune f;
  Extremum.front f;
  Float.Array.get reg 1

(* the extremum of [f]'s samples at or after [horizon] *)
let[@inline] standing f ~horizon =
  let reg = Extremum.reg f in
  Float.Array.set reg 0 horizon;
  Extremum.standing f;
  Float.Array.get reg 1

(* the stats move slowly, so recompute them at most once per 10 ms; the
   max filter's empty value is 0 *)
let[@inline] update_rtt_stats t now =
  let s = t.s in
  if now -. s.stats_cached_at >= 0.01 then begin
    s.stats_cached_at <- now;
    s.rtt_min <- front t.lo ~horizon:(now -. long_window);
    s.rtt_max <- Float.max 0. (front t.hi ~horizon:(now -. long_window));
    s.standing <-
      standing t.lo ~horizon:(now -. Float.max (s.srtt /. 2.) 0.005)
  end

let[@inline] update_mode t now =
  let s = t.s in
  if t.switching then begin
    (* queue must be nearly empty at least once every 5 RTTs *)
    let was_competitive = t.competitive in
    t.competitive <- now -. s.last_nearly_empty > 5. *. s.srtt;
    if t.competitive && not was_competitive then begin
      s.delta <- default_delta;
      s.last_delta_increase <- now
    end;
    if not t.competitive then s.delta <- default_delta
  end

let on_ack t (a : Cc_types.ack) =
  let s = t.s in
  let now = Time.to_secs a.times.now in
  s.srtt <- Time.to_secs a.times.srtt;
  let sample = Time.to_secs a.times.rtt in
  push t.lo ~at:now sample;
  push t.hi ~at:now sample;
  update_rtt_stats t now;
  let dq = s.standing -. s.rtt_min in
  let max_dq = s.rtt_max -. s.rtt_min in
  if max_dq <= 1e-6 || dq < 0.1 *. max_dq then s.last_nearly_empty <- now;
  update_mode t now;
  (* competitive mode: AIMD on 1/delta, one increase per RTT *)
  if t.competitive && now -. s.last_delta_increase > s.srtt then begin
    let inv = (1. /. s.delta) +. 1. in
    s.delta <- 1. /. inv;
    s.last_delta_increase <- now
  end;
  let rtt = Float.max s.srtt 1e-4 in
  let current_rate = t.cwnd /. rtt in
  let target_rate =
    if dq <= 1e-6 then infinity else mss /. (s.delta *. dq)
  in
  if t.in_slow_start then begin
    t.cwnd <- t.cwnd +. float_of_int a.bytes;
    if current_rate > target_rate then t.in_slow_start <- false
  end
  else begin
    (* velocity: doubles each RTT the window keeps moving one way *)
    if now -. s.last_direction_update > s.srtt then begin
      let dir = if t.cwnd > s.cwnd_at_last_direction then 1 else -1 in
      if dir = t.direction then s.velocity <- Float.min (s.velocity *. 2.) 1e6
      else begin
        s.velocity <- 1.;
        t.direction <- dir
      end;
      s.last_direction_update <- now;
      s.cwnd_at_last_direction <- t.cwnd
    end;
    let step =
      s.velocity *. mss *. float_of_int a.bytes /. (s.delta *. t.cwnd)
    in
    if current_rate < target_rate then t.cwnd <- t.cwnd +. step
    else t.cwnd <- Float.max (2. *. mss) (t.cwnd -. step)
  end

let on_loss t (l : Cc_types.loss) =
  let s = t.s in
  let now = Time.to_secs l.times.now in
  t.in_slow_start <- false;
  match l.kind with
  | `Timeout -> t.cwnd <- 2. *. mss
  | `Dupack ->
    if now > s.last_loss_reaction +. s.srtt then begin
      s.last_loss_reaction <- now;
      if t.competitive then begin
        (* competitive mode reacts through delta alone: halve 1/delta
           (double delta, bounded by the default); the window keeps
           following the target-rate rule, so the standing queue persists
           and the detector can stay stuck -- the paper's App. D behaviour *)
        let inv = Float.max 2. (1. /. s.delta /. 2.) in
        s.delta <- Float.min default_delta (1. /. inv)
      end
      else t.cwnd <- Float.max (2. *. mss) (t.cwnd *. 0.7)
    end

let cc t =
  { Cc_types.name = (if t.switching then "copa" else "copa-default");
    on_ack = on_ack t;
    on_loss = on_loss t;
    on_tick = None;
    cwnd = (fun () -> B.bytes t.cwnd);
    pacing_rate = (fun () -> None) }

let make ?switching () = cc (create ?switching ())
