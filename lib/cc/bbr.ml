module Time = Units.Time
module Rate = Units.Rate
module B = Units.Bytes

type phase =
  | Startup
  | Drain
  | Probe_bw of int (* index into the gain cycle *)
  | Probe_rtt of float * phase (* end time, phase to resume *)

type t = {
  mutable phase : phase;
  mutable btl_bw : float;  (* bps; windowed max *)
  bw_samples : (float * float) Queue.t; (* (time, bps) over ~10 RTT *)
  mutable rt_prop : float; (* s; windowed min *)
  rtt_samples : (float * float) Queue.t; (* (time, rtt) over 10 s *)
  mutable full_bw : float;
  mutable full_bw_count : int;
  mutable last_full_bw_check : float;
  mutable cycle_start : float;
  mutable last_probe_rtt : float;
  mutable inflight : int;
  mutable srtt : float;
  mutable filters_updated_at : float;
}

let mss = float_of_int 1500

let gain_cycle = [| 1.25; 0.75; 1.; 1.; 1.; 1.; 1.; 1. |]

let startup_gain = 2.885

let create () =
  { phase = Startup; btl_bw = 0.;
    bw_samples = Queue.create (); rt_prop = infinity;
    rtt_samples = Queue.create (); full_bw = 0.; full_bw_count = 0;
    last_full_bw_check = 0.; cycle_start = 0.; last_probe_rtt = 0.;
    inflight = 0; srtt = 0.1; filters_updated_at = neg_infinity }

let btl_bw t = Rate.bps t.btl_bw

let bdp_bytes t =
  if t.btl_bw <= 0. || not (Float.is_finite t.rt_prop) then 10. *. mss
  else t.btl_bw *. t.rt_prop /. 8.

let prune_before q horizon =
  let continue = ref true in
  while !continue do
    match Queue.peek_opt q with
    | Some (at, _) when at < horizon -> ignore (Queue.pop q)
    | _ -> continue := false
  done

(* folding over the 10 s sample windows on every ACK is quadratic in rate;
   the windowed extrema move slowly, so refresh at most once per 10 ms *)
let update_filters t now =
  if now -. t.filters_updated_at >= 0.01 then begin
    t.filters_updated_at <- now;
    prune_before t.bw_samples (now -. Float.max (10. *. t.srtt) 0.5);
    prune_before t.rtt_samples (now -. 10.);
    t.btl_bw <-
      Queue.fold (fun acc (_, bw) -> Float.max acc bw) 0. t.bw_samples;
    t.rt_prop <-
      Queue.fold (fun acc (_, rtt) -> Float.min acc rtt) infinity t.rtt_samples
  end

let check_full_bw t now =
  if now -. t.last_full_bw_check > t.srtt then begin
    t.last_full_bw_check <- now;
    if t.btl_bw > t.full_bw *. 1.25 then begin
      t.full_bw <- t.btl_bw;
      t.full_bw_count <- 0
    end
    else t.full_bw_count <- t.full_bw_count + 1;
    if t.full_bw_count >= 3 then t.phase <- Drain
  end

let advance t now =
  (match t.phase with
   | Startup -> check_full_bw t now
   | Drain ->
     if float_of_int t.inflight <= bdp_bytes t then begin
       t.phase <- Probe_bw 2;
       t.cycle_start <- now
     end
   | Probe_bw i ->
     let phase_len = if Float.is_finite t.rt_prop then t.rt_prop else 0.1 in
     if now -. t.cycle_start > phase_len then begin
       t.phase <- Probe_bw ((i + 1) mod Array.length gain_cycle);
       t.cycle_start <- now
     end
   | Probe_rtt (until, resume) ->
     if now > until then begin
       t.phase <- resume;
       t.cycle_start <- now
     end);
  (* ProbeRTT every 10 s, except during startup *)
  match t.phase with
  | Startup | Drain | Probe_rtt _ -> ()
  | Probe_bw _ ->
    if now -. t.last_probe_rtt > 10. then begin
      t.last_probe_rtt <- now;
      t.phase <- Probe_rtt (now +. 0.2, t.phase)
    end

let pacing_gain t =
  match t.phase with
  | Startup -> startup_gain
  | Drain -> 1. /. startup_gain
  | Probe_bw i -> gain_cycle.(i)
  | Probe_rtt _ -> 1.

let on_ack t (a : Cc_types.ack) =
  let now = Time.to_secs a.times.now in
  t.srtt <- Time.to_secs a.times.srtt;
  t.inflight <- a.inflight_bytes;
  Queue.push (now, Time.to_secs a.times.rtt) t.rtt_samples;
  update_filters t now;
  advance t now

let on_tick t (tk : Cc_types.tick) =
  let now = Time.to_secs tk.now in
  if Time.is_known tk.srtt then t.srtt <- Time.to_secs tk.srtt;
  t.inflight <- tk.inflight_bytes;
  if Rate.is_known tk.recv_rate then
    Queue.push (now, Rate.to_bps tk.recv_rate) t.bw_samples;
  update_filters t now;
  advance t now

let cwnd t =
  match t.phase with
  | Probe_rtt _ -> 4. *. mss
  | Startup | Drain -> Float.max (startup_gain *. bdp_bytes t) (10. *. mss)
  | Probe_bw _ -> Float.max (2. *. bdp_bytes t) (4. *. mss)

let pacing t =
  if t.btl_bw <= 0. then None
  else Some (Rate.bps (pacing_gain t *. t.btl_bw))

let cc t =
  { Cc_types.name = "bbr";
    on_ack = on_ack t;
    on_loss = (fun _ -> ()); (* BBR v1 ignores individual losses *)
    on_tick = Some (on_tick t);
    cwnd = (fun () -> B.bytes (cwnd t));
    pacing_rate = (fun () -> pacing t) }

let make () = cc (create ())
