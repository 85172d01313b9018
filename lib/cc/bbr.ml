module Time = Units.Time
module Rate = Units.Rate
module B = Units.Bytes
module Extremum = Nimbus_dsp.Extremum

type phase =
  | Startup
  | Drain
  | Probe_bw of int (* index into the gain cycle *)
  | Probe_rtt of float * phase (* end time, phase to resume *)

(* The state an ACK writes, in a record of floats only, which stores it
   unboxed (DESIGN.md §13, the [-opaque] rule), as Cubic's is.  The helpers
   that take or return a float are [@inline]: a float passed through a call
   that is not inlined is boxed. *)
type state = {
  mutable btl_bw : float; (* bps; windowed max *)
  mutable rt_prop : float; (* s; windowed min *)
  mutable full_bw : float;
  mutable last_full_bw_check : float;
  mutable cycle_start : float;
  mutable last_probe_rtt : float;
  mutable srtt : float;
  mutable filters_updated_at : float;
}

type t = {
  mutable phase : phase;
  s : state;
  bw : Extremum.t; (* bps over ~10 RTT *)
  rtt : Extremum.t; (* s over 10 s *)
  mutable full_bw_count : int;
  mutable inflight : int;
}

let mss = float_of_int 1500

let gain_cycle = [| 1.25; 0.75; 1.; 1.; 1.; 1.; 1.; 1. |]

let startup_gain = 2.885

let create () =
  { phase = Startup;
    s =
      { btl_bw = 0.; rt_prop = infinity; full_bw = 0.;
        last_full_bw_check = 0.; cycle_start = 0.; last_probe_rtt = 0.;
        srtt = 0.1; filters_updated_at = neg_infinity };
    bw = Extremum.max (); rtt = Extremum.min (); full_bw_count = 0;
    inflight = 0 }

let btl_bw t = Rate.bps t.s.btl_bw

let[@inline] bdp_bytes s =
  if s.btl_bw <= 0. || not (Float.is_finite s.rt_prop) then 10. *. mss
  else s.btl_bw *. s.rt_prop /. 8.

let[@inline] push f ~at v =
  let reg = Extremum.reg f in
  Float.Array.set reg 0 at;
  Float.Array.set reg 1 v;
  Extremum.push f

(* the extremum of [f] once the samples before [horizon] are gone *)
let[@inline] front f ~horizon =
  let reg = Extremum.reg f in
  Float.Array.set reg 0 horizon;
  Extremum.prune f;
  Extremum.front f;
  Float.Array.get reg 1

(* the windowed extrema move slowly, so refresh them at most once per
   10 ms; the rate filter's empty value is 0 *)
let[@inline] update_filters t now =
  let s = t.s in
  if now -. s.filters_updated_at >= 0.01 then begin
    s.filters_updated_at <- now;
    s.btl_bw <-
      Float.max 0.
        (front t.bw ~horizon:(now -. Float.max (10. *. s.srtt) 0.5));
    s.rt_prop <- front t.rtt ~horizon:(now -. 10.)
  end

let[@inline] check_full_bw t now =
  let s = t.s in
  if now -. s.last_full_bw_check > s.srtt then begin
    s.last_full_bw_check <- now;
    if s.btl_bw > s.full_bw *. 1.25 then begin
      s.full_bw <- s.btl_bw;
      t.full_bw_count <- 0
    end
    else t.full_bw_count <- t.full_bw_count + 1;
    if t.full_bw_count >= 3 then t.phase <- Drain
  end

let[@inline] advance t now =
  let s = t.s in
  (match t.phase with
   | Startup -> check_full_bw t now
   | Drain ->
     if float_of_int t.inflight <= bdp_bytes s then begin
       t.phase <- Probe_bw 2;
       s.cycle_start <- now
     end
   | Probe_bw i ->
     let phase_len = if Float.is_finite s.rt_prop then s.rt_prop else 0.1 in
     if now -. s.cycle_start > phase_len then begin
       t.phase <- Probe_bw ((i + 1) mod Array.length gain_cycle);
       s.cycle_start <- now
     end
   | Probe_rtt (until, resume) ->
     if now > until then begin
       t.phase <- resume;
       s.cycle_start <- now
     end);
  (* ProbeRTT every 10 s, except during startup *)
  match t.phase with
  | Startup | Drain | Probe_rtt _ -> ()
  | Probe_bw _ ->
    if now -. s.last_probe_rtt > 10. then begin
      s.last_probe_rtt <- now;
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
  t.s.srtt <- Time.to_secs a.times.srtt;
  t.inflight <- a.inflight_bytes;
  push t.rtt ~at:now (Time.to_secs a.times.rtt);
  update_filters t now;
  advance t now

let on_tick t (tk : Cc_types.tick) =
  let now = Time.to_secs tk.now in
  if Time.is_known tk.srtt then t.s.srtt <- Time.to_secs tk.srtt;
  t.inflight <- tk.inflight_bytes;
  if Rate.is_known tk.recv_rate then
    push t.bw ~at:now (Rate.to_bps tk.recv_rate);
  update_filters t now;
  advance t now

let cwnd t =
  match t.phase with
  | Probe_rtt _ -> 4. *. mss
  | Startup | Drain -> Float.max (startup_gain *. bdp_bytes t.s) (10. *. mss)
  | Probe_bw _ -> Float.max (2. *. bdp_bytes t.s) (4. *. mss)

let pacing t =
  if t.s.btl_bw <= 0. then None
  else Some (Rate.bps (pacing_gain t *. t.s.btl_bw))

let cc t =
  { Cc_types.name = "bbr";
    on_ack = on_ack t;
    on_loss = (fun _ -> ()); (* BBR v1 ignores individual losses *)
    on_tick = Some (on_tick t);
    cwnd = (fun () -> B.bytes (cwnd t));
    pacing_rate = (fun () -> pacing t) }

let make () = cc (create ())
