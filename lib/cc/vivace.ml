module Time = Units.Time
module Rate = Units.Rate

(* A monitor interval, in a record of floats only, which stores unboxed,
   so crediting an ACK to it allocates nothing; its counts are whole
   numbers held exactly.  Intervals are reused in place ({!reset_mi}). *)
type mi = {
  mutable mi_start : float;
  mutable mi_end : float; (* nan while the interval is still open *)
  mutable sign : float;   (* +1 / -1 probe direction *)
  mutable acked_bytes : float;
  mutable lost : float;
  mutable acked : float;
  (* accumulators for the least-squares RTT slope over the interval *)
  mutable n_rtt : float;
  mutable sum_t : float;
  mutable sum_r : float;
  mutable sum_tt : float;
  mutable sum_tr : float;
}

let fresh_mi ~now ~sign =
  { mi_start = now; mi_end = nan; sign; acked_bytes = 0.; lost = 0.;
    acked = 0.; n_rtt = 0.; sum_t = 0.; sum_r = 0.; sum_tt = 0.; sum_tr = 0. }

(* the floats an ACK or a tick writes, in a record of floats only *)
type floats = {
  mutable rate : float; (* bps, the base rate r *)
  mutable srtt : float;
  mutable last_step : float;
  mutable prev_pair_utility : float;
  (* the send instant an event is being attributed to, or the tick's
     instant, handed to the non-inlined walks below without a box *)
  mutable at : float;
  (* the last scored interval's probe sign (0: none) and utility, waiting
     for an interval of the other sign to complete the pair *)
  mutable held_sign : float;
  mutable held_utility : float;
  mutable utility : float; (* the interval being scored *)
}

(* The open interval and the finalized ones waiting for their ACKs share
   one ring: [ring.(first)] is the oldest pending interval, the next
   [npending - 1] follow it, and the slot after them is [current].  The
   other slots hold spent intervals, reset and reused on rotation. *)
type t = {
  f : floats;
  o : Cc_types.out; (* published at the end of every ACK and tick *)
  mutable current : mi;
  mutable ring : mi array; (* length a power of two *)
  mutable first : int;
  mutable npending : int;
  mutable amplifier : int;
  mutable started : bool;
  mutable doubling : bool; (* PCC's startup: double until utility drops *)
  none : mi; (* what {!find_mi} answers when no interval matches *)
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

(* the window cap of 3·rate·RTT and the probing rate of the current
   interval *)
let publish t =
  let f = t.f in
  t.o.cwnd <- Float.max (3. *. f.rate *. f.srtt /. 8.) (4. *. mss);
  t.o.pace <- f.rate *. (1. +. (t.current.sign *. epsilon))
[@@alloc_free]

let create () =
  let ring = Array.init 8 (fun _ -> fresh_mi ~now:0. ~sign:1.) in
  let t =
    { f =
        { rate = Rate.to_bps initial_rate; srtt = 0.1; last_step = 0.;
          prev_pair_utility = neg_infinity; at = 0.; held_sign = 0.;
          held_utility = 0.; utility = 0. };
      o = Cc_types.out ~cwnd:nan ~pace:nan;
      current = ring.(0); ring; first = 0; npending = 0;
      amplifier = 0; started = false; doubling = true;
      none = fresh_mi ~now:nan ~sign:0. }
  in
  publish t;
  t

(* Reopen [m] at the tick's instant [t.f.at], empty. *)
let reset_mi t m =
  m.mi_start <- t.f.at;
  m.mi_end <- nan;
  m.acked_bytes <- 0.;
  m.lost <- 0.;
  m.acked <- 0.;
  m.n_rtt <- 0.;
  m.sum_t <- 0.;
  m.sum_r <- 0.;
  m.sum_tt <- 0.;
  m.sum_tr <- 0.
[@@alloc_free]

(* The ring slot [i] places after the oldest pending interval. *)
let[@inline] slot t i = t.ring.((t.first + i) land (Array.length t.ring - 1))

(* Double the ring when no spent slot is left for the next interval:
   pending intervals and [current] keep their order from index 0. *)
let grow_ring t =
  let n = Array.length t.ring in
  let ring = Array.init (2 * n) (fun i ->
      if i < n then slot t i else fresh_mi ~now:0. ~sign:1.) in
  t.ring <- ring;
  t.first <- 0

let[@inline] covers m sent_at =
  sent_at >= m.mi_start && (Float.is_nan m.mi_end || sent_at < m.mi_end)

let rec find_pending t i =
  if i = t.npending then t.none
  else begin
    let m = slot t i in
    if covers m t.f.at then m else find_pending t (i + 1)
  end

(* Attribute an event to the monitor interval its packet was *sent* in
   ([t.f.at]): ACKs arrive one RTT after the probe rate that produced them
   applied.  [t.none] when no interval matches. *)
let find_mi t =
  if covers t.current t.f.at then t.current else find_pending t 0

(* Score interval [m] into [t.f.utility]. *)
let utility t m =
  let dur = Float.max (m.mi_end -. m.mi_start) 1e-3 in
  let x = m.acked_bytes *. 8. /. dur /. 1e6 in
  let loss_rate =
    let total = m.acked +. m.lost in
    if Float.equal total 0. then 0. else m.lost /. total
  in
  (* least-squares RTT slope with a deadzone, so serialization quantization
     noise does not read as a delay gradient *)
  let rtt_grad =
    if m.n_rtt < 4. then 0.
    else begin
      let n = m.n_rtt in
      let denom = (n *. m.sum_tt) -. (m.sum_t *. m.sum_t) in
      if Float.abs denom < 1e-12 then 0.
      else begin
        let slope = ((n *. m.sum_tr) -. (m.sum_t *. m.sum_r)) /. denom in
        if Float.abs slope < 0.01 then 0. else slope
      end
    end
  in
  t.f.utility <-
    (x ** exponent)
    -. (b_coeff *. x *. Float.max 0. rtt_grad)
    -. (c_coeff *. x *. loss_rate)
[@@alloc_free]

(* Move the rate on a completed pair: the held interval's utility and the
   one just scored, [t.f.utility]. *)
let apply_pair t =
  let f = t.f in
  let u_plus = if f.held_sign > 0. then f.held_utility else f.utility in
  let u_minus = if f.held_sign > 0. then f.utility else f.held_utility in
  let pair_utility = (u_plus +. u_minus) /. 2. in
  if t.doubling then begin
    (* startup: double the rate while utility keeps improving *)
    if pair_utility > f.prev_pair_utility then f.rate <- f.rate *. 2.
    else begin
      t.doubling <- false;
      f.rate <- f.rate /. 2.
    end;
    f.prev_pair_utility <- pair_utility
  end
  else begin
    (* online gradient ascent with confidence amplification and a dynamic
       boundary of 25% of the current rate *)
    let denom = 2. *. epsilon *. (f.rate /. 1e6) in
    let gradient = if Float.equal denom 0. then 0. else (u_plus -. u_minus) /. denom in
    let direction = if gradient >= 0. then 1. else -1. in
    if direction = f.last_step then t.amplifier <- min (t.amplifier + 1) 8
    else t.amplifier <- 0;
    f.last_step <- direction;
    let step = theta0 *. float_of_int (1 + t.amplifier) *. gradient in
    let bound = 0.25 *. f.rate in
    let step = Float.max (-.bound) (Float.min bound step) in
    f.rate <- Float.max 100_000. (f.rate +. step)
  end
[@@alloc_free]

(* Score [m]; a pair is complete when the held interval probed the other
   way (a product of signs below 0; none held reads 0). *)
let score_mi t m =
  utility t m;
  let f = t.f in
  if f.held_sign *. m.sign < 0. then begin
    apply_pair t;
    f.held_sign <- 0.
  end
  else begin
    f.held_sign <- m.sign;
    f.held_utility <- f.utility
  end
[@@alloc_free]

(* score the intervals whose ACKs have all had time to arrive by the
   tick's instant [t.f.at], oldest first *)
let rec drain t =
  if t.npending > 0 then begin
    let m = slot t 0 in
    if t.f.at > m.mi_end +. (1.5 *. t.f.srtt) then begin
      t.first <- (t.first + 1) land (Array.length t.ring - 1);
      t.npending <- t.npending - 1;
      score_mi t m;
      drain t
    end
  end
[@@alloc_free]

let on_tick t (tk : Cc_types.tick) =
  t.f.at <- Time.to_secs tk.now;
  if t.started then begin
    let now = t.f.at in
    let mi_len = Float.max t.f.srtt 0.05 in
    (* rotate the current interval into the pending ones *)
    if now -. t.current.mi_start >= mi_len then begin
      let ended = t.current in
      ended.mi_end <- now;
      t.npending <- t.npending + 1;
      if t.npending = Array.length t.ring then grow_ring t;
      let m = slot t t.npending in
      reset_mi t m;
      m.sign <- -.ended.sign;
      t.current <- m
    end;
    drain t
  end
  else begin
    reset_mi t t.current;
    t.current.sign <- 1.
  end;
  publish t

let on_ack t (a : Cc_types.ack) =
  let rtt = Time.to_secs a.times.rtt in
  t.f.srtt <- Time.to_secs a.times.srtt;
  t.started <- true;
  t.f.at <- Time.to_secs a.times.now -. rtt;
  let m = find_mi t in
  if m != t.none then begin
    let rel_t = t.f.at -. m.mi_start in
    m.acked_bytes <- m.acked_bytes +. float_of_int a.bytes;
    m.acked <- m.acked +. 1.;
    m.n_rtt <- m.n_rtt +. 1.;
    m.sum_t <- m.sum_t +. rel_t;
    m.sum_r <- m.sum_r +. rtt;
    m.sum_tt <- m.sum_tt +. (rel_t *. rel_t);
    m.sum_tr <- m.sum_tr +. (rel_t *. rtt)
  end;
  publish t

let on_loss t (l : Cc_types.loss) =
  (* losses are detected roughly one RTT after the send *)
  t.f.at <- Time.to_secs l.times.now -. t.f.srtt;
  let m = find_mi t in
  if m != t.none then m.lost <- m.lost +. 1.

let cc t =
  Cc_types.make ~name:"vivace" ~on_ack:(on_ack t) ~on_loss:(on_loss t)
    ~on_tick:(on_tick t) t.o

let make () = cc (create ())
