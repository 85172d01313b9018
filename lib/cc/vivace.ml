module Time = Units.Time
module Rate = Units.Rate
module B = Units.Bytes

type mi = {
  mi_start : float;
  mutable mi_end : float; (* nan while the interval is still open *)
  sign : float;           (* +1 / -1 probe direction *)
  mutable acked_bytes : int;
  mutable lost : int;
  mutable acked : int;
  (* accumulators for the least-squares RTT slope over the interval *)
  mutable n_rtt : int;
  mutable sum_t : float;
  mutable sum_r : float;
  mutable sum_tt : float;
  mutable sum_tr : float;
}

let fresh_mi ~now ~sign =
  { mi_start = now; mi_end = nan; sign; acked_bytes = 0; lost = 0; acked = 0;
    n_rtt = 0; sum_t = 0.; sum_r = 0.; sum_tt = 0.; sum_tr = 0. }

type t = {
  mutable rate : float; (* bps, the base rate r *)
  mutable current : mi;
  mutable pending : mi list; (* finalized, waiting for their ACKs (oldest first) *)
  mutable utilities : (float * float) list; (* (sign, utility), newest first *)
  mutable srtt : float;
  mutable amplifier : int;
  mutable last_step : float;
  mutable started : bool;
  mutable doubling : bool; (* PCC's startup: double until utility drops *)
  mutable prev_pair_utility : float;
}

(* Vivace utility coefficients from the NSDI paper; x in Mbit/s. *)
let b_coeff = 900.

let c_coeff = 11.35

let exponent = 0.9

let theta0 = 1e5 (* bps step per unit utility gradient *)

let mss = float_of_int 1500

let initial_rate = Rate.mbps 1.

(* probe amplitude *)
let epsilon = 0.05

let create () =
  { rate = Rate.to_bps initial_rate;
    current = fresh_mi ~now:0. ~sign:1.; pending = []; utilities = [];
    srtt = 0.1; amplifier = 0; last_step = 0.; started = false;
    doubling = true; prev_pair_utility = neg_infinity }

let rate t = Rate.bps t.rate

(* Attribute an event to the monitor interval its packet was *sent* in:
   ACKs arrive one RTT after the probe rate that produced them applied. *)
let find_mi t sent_at =
  let matches m =
    sent_at >= m.mi_start && (Float.is_nan m.mi_end || sent_at < m.mi_end)
  in
  if matches t.current then Some t.current
  else List.find_opt matches t.pending

let utility m ~dur =
  let x = float_of_int (m.acked_bytes * 8) /. dur /. 1e6 in
  let loss_rate =
    let total = m.acked + m.lost in
    if total = 0 then 0. else float_of_int m.lost /. float_of_int total
  in
  (* least-squares RTT slope with a deadzone, so serialization quantization
     noise does not read as a delay gradient *)
  let rtt_grad =
    if m.n_rtt < 4 then 0.
    else begin
      let n = float_of_int m.n_rtt in
      let denom = (n *. m.sum_tt) -. (m.sum_t *. m.sum_t) in
      if Float.abs denom < 1e-12 then 0.
      else begin
        let slope = ((n *. m.sum_tr) -. (m.sum_t *. m.sum_r)) /. denom in
        if Float.abs slope < 0.01 then 0. else slope
      end
    end
  in
  (x ** exponent)
  -. (b_coeff *. x *. Float.max 0. rtt_grad)
  -. (c_coeff *. x *. loss_rate)

let apply_pair t ~u_plus ~u_minus =
  let pair_utility = (u_plus +. u_minus) /. 2. in
  if t.doubling then begin
    (* startup: double the rate while utility keeps improving *)
    if pair_utility > t.prev_pair_utility then t.rate <- t.rate *. 2.
    else begin
      t.doubling <- false;
      t.rate <- t.rate /. 2.
    end;
    t.prev_pair_utility <- pair_utility
  end
  else begin
    (* online gradient ascent with confidence amplification and a dynamic
       boundary of 25% of the current rate *)
    let denom = 2. *. epsilon *. (t.rate /. 1e6) in
    let gradient = if Float.equal denom 0. then 0. else (u_plus -. u_minus) /. denom in
    let direction = if gradient >= 0. then 1. else -1. in
    if direction = t.last_step then t.amplifier <- min (t.amplifier + 1) 8
    else t.amplifier <- 0;
    t.last_step <- direction;
    let step = theta0 *. float_of_int (1 + t.amplifier) *. gradient in
    let bound = 0.25 *. t.rate in
    let step = Float.max (-.bound) (Float.min bound step) in
    t.rate <- Float.max 100_000. (t.rate +. step)
  end

let score_mi t m =
  let dur = Float.max (m.mi_end -. m.mi_start) 1e-3 in
  t.utilities <- (m.sign, utility m ~dur) :: t.utilities;
  match t.utilities with
  | (s2, u2) :: (s1, u1) :: _ when s1 <> s2 ->
    let u_plus = if s1 > 0. then u1 else u2 in
    let u_minus = if s1 > 0. then u2 else u1 in
    apply_pair t ~u_plus ~u_minus;
    t.utilities <- []
  | _ -> ()

let on_tick t (tk : Cc_types.tick) =
  if t.started then begin
    let now = Time.to_secs tk.now in
    let mi_len = Float.max t.srtt 0.05 in
    (* rotate the current interval *)
    if now -. t.current.mi_start >= mi_len then begin
      t.current.mi_end <- now;
      t.pending <- t.pending @ [ t.current ];
      t.current <- fresh_mi ~now ~sign:(-.t.current.sign)
    end;
    (* score intervals whose ACKs have all had time to arrive *)
    let rec drain () =
      match t.pending with
      | m :: rest when now > m.mi_end +. (1.5 *. t.srtt) ->
        t.pending <- rest;
        score_mi t m;
        drain ()
      | _ -> ()
    in
    drain ()
  end
  else t.current <- fresh_mi ~now:(Time.to_secs tk.now) ~sign:1.

let on_ack t (a : Cc_types.ack) =
  let rtt = Time.to_secs a.times.rtt in
  t.srtt <- Time.to_secs a.times.srtt;
  t.started <- true;
  let sent_at = Time.to_secs a.times.now -. rtt in
  match find_mi t sent_at with
  | None -> ()
  | Some m ->
    m.acked_bytes <- m.acked_bytes + a.bytes;
    m.acked <- m.acked + 1;
    let rel_t = sent_at -. m.mi_start in
    m.n_rtt <- m.n_rtt + 1;
    m.sum_t <- m.sum_t +. rel_t;
    m.sum_r <- m.sum_r +. rtt;
    m.sum_tt <- m.sum_tt +. (rel_t *. rel_t);
    m.sum_tr <- m.sum_tr +. (rel_t *. rtt)

let on_loss t (l : Cc_types.loss) =
  (* losses are detected roughly one RTT after the send *)
  let sent_at = Time.to_secs l.times.now -. t.srtt in
  match find_mi t sent_at with
  | None -> ()
  | Some m -> m.lost <- m.lost + 1

let cc t =
  { Cc_types.name = "vivace";
    on_ack = on_ack t;
    on_loss = on_loss t;
    on_tick = Some (on_tick t);
    cwnd =
      (fun () ->
        B.bytes (Float.max (3. *. t.rate *. t.srtt /. 8.) (4. *. mss)));
    pacing_rate =
      (fun () ->
        Some (Rate.bps (t.rate *. (1. +. (t.current.sign *. epsilon))))) }

let make () = cc (create ())
