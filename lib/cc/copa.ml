module Time = Units.Time
module B = Units.Bytes

(* RTT bookkeeping: Copa needs
   - rtt_min: minimum over a long (10 s) window — the propagation delay;
   - rtt_standing: minimum over the last srtt/2 — the current standing queue;
   - rtt_max: maximum over the long window — used by the nearly-empty test. *)

type sample = {
  at : float;
  rtt : float;
}

let mss_bytes = 1500

let mss = float_of_int mss_bytes

(* the default-mode δ *)
let default_delta = 0.5

type t = {
  switching : bool;
  mutable delta : float;
  mutable cwnd : float; (* bytes *)
  mutable velocity : float;
  mutable direction : int; (* +1 up, -1 down, 0 unknown *)
  mutable last_direction_update : float;
  mutable cwnd_at_last_direction : float;
  mutable competitive : bool;
  mutable last_nearly_empty : float;
  samples : sample Queue.t; (* long window *)
  mutable srtt : float;
  mutable in_slow_start : bool;
  mutable last_loss_reaction : float;
  mutable last_delta_increase : float;
  mutable stats_cached_at : float;
  mutable stats_cache : float * float * float;
}

let long_window = 10.

let create ?(switching = true) () =
  { switching; delta = default_delta;
    cwnd = float_of_int (mss_bytes * 10); velocity = 1.; direction = 0;
    last_direction_update = 0.; cwnd_at_last_direction = 0.;
    competitive = false; last_nearly_empty = 0.; samples = Queue.create ();
    srtt = 0.1; in_slow_start = true; last_loss_reaction = neg_infinity;
    last_delta_increase = 0.; stats_cached_at = neg_infinity;
    stats_cache = (infinity, 0., infinity) }

let cwnd_bytes t = B.bytes t.cwnd

let in_competitive_mode t = t.competitive

let reset_cwnd t bytes =
  t.cwnd <- Float.max (2. *. mss) (B.to_float bytes);
  t.in_slow_start <- false

let prune t now =
  let continue = ref true in
  while !continue do
    match Queue.peek_opt t.samples with
    | Some s when now -. s.at > long_window -> ignore (Queue.pop t.samples)
    | _ -> continue := false
  done

(* scanning the whole 10 s sample window on every ACK is quadratic in rate;
   the stats move slowly, so recompute at most once per 10 ms *)
let rec rtt_stats t now =
  if now -. t.stats_cached_at < 0.01 then t.stats_cache
  else compute_rtt_stats t now

and compute_rtt_stats t now =
  prune t now;
  let rtt_min = ref infinity and rtt_max = ref 0. and standing = ref infinity in
  let standing_horizon = now -. Float.max (t.srtt /. 2.) 0.005 in
  Queue.iter
    (fun s ->
      if s.rtt < !rtt_min then rtt_min := s.rtt;
      if s.rtt > !rtt_max then rtt_max := s.rtt;
      if s.at >= standing_horizon && s.rtt < !standing then standing := s.rtt)
    t.samples;
  let result = (!rtt_min, !rtt_max, !standing) in
  t.stats_cached_at <- now;
  t.stats_cache <- result;
  result

let update_mode t now =
  if t.switching then begin
    (* queue must be nearly empty at least once every 5 RTTs *)
    let was_competitive = t.competitive in
    t.competitive <- now -. t.last_nearly_empty > 5. *. t.srtt;
    if t.competitive && not was_competitive then begin
      t.delta <- default_delta;
      t.last_delta_increase <- now
    end;
    if not t.competitive then t.delta <- default_delta
  end

let on_ack t (a : Cc_types.ack) =
  let now = Time.to_secs a.times.now in
  t.srtt <- Time.to_secs a.times.srtt;
  Queue.push { at = now; rtt = Time.to_secs a.times.rtt } t.samples;
  let rtt_min, rtt_max, standing = rtt_stats t now in
  let dq = standing -. rtt_min in
  let max_dq = rtt_max -. rtt_min in
  if max_dq <= 1e-6 || dq < 0.1 *. max_dq then t.last_nearly_empty <- now;
  update_mode t now;
  (* competitive mode: AIMD on 1/delta, one increase per RTT *)
  if t.competitive && now -. t.last_delta_increase > t.srtt then begin
    let inv = (1. /. t.delta) +. 1. in
    t.delta <- 1. /. inv;
    t.last_delta_increase <- now
  end;
  let rtt = Float.max t.srtt 1e-4 in
  let current_rate = t.cwnd /. rtt in
  let target_rate =
    if dq <= 1e-6 then infinity else mss /. (t.delta *. dq)
  in
  if t.in_slow_start then begin
    t.cwnd <- t.cwnd +. float_of_int a.bytes;
    if current_rate > target_rate then t.in_slow_start <- false
  end
  else begin
    (* velocity: doubles each RTT the window keeps moving one way *)
    if now -. t.last_direction_update > t.srtt then begin
      let dir = if t.cwnd > t.cwnd_at_last_direction then 1 else -1 in
      if dir = t.direction then t.velocity <- Float.min (t.velocity *. 2.) 1e6
      else begin
        t.velocity <- 1.;
        t.direction <- dir
      end;
      t.last_direction_update <- now;
      t.cwnd_at_last_direction <- t.cwnd
    end;
    let step =
      t.velocity *. mss *. float_of_int a.bytes /. (t.delta *. t.cwnd)
    in
    if current_rate < target_rate then t.cwnd <- t.cwnd +. step
    else t.cwnd <- Float.max (2. *. mss) (t.cwnd -. step)
  end

let on_loss t (l : Cc_types.loss) =
  let now = Time.to_secs l.times.now in
  t.in_slow_start <- false;
  match l.kind with
  | `Timeout -> t.cwnd <- 2. *. mss
  | `Dupack ->
    if now > t.last_loss_reaction +. t.srtt then begin
      t.last_loss_reaction <- now;
      if t.competitive then begin
        (* competitive mode reacts through delta alone: halve 1/delta
           (double delta, bounded by the default); the window keeps
           following the target-rate rule, so the standing queue persists
           and the detector can stay stuck -- the paper's App. D behaviour *)
        let inv = Float.max 2. (1. /. t.delta /. 2.) in
        t.delta <- Float.min default_delta (1. /. inv)
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
