module Time = Units.Time
module Rate = Units.Rate

(* A monitor interval, in a record of floats only, which stores unboxed,
   so crediting an ACK to it allocates nothing; its counts are whole
   numbers held exactly. *)
type mi = {
  mi_start : float;
  mutable mi_end : float; (* nan while the interval is still open *)
  sign : float;           (* +1 / -1 probe direction *)
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
}

type t = {
  f : floats;
  o : Cc_types.out; (* published at the end of every ACK and tick *)
  mutable current : mi;
  mutable pending : mi list; (* finalized, waiting for their ACKs (oldest first) *)
  mutable utilities : (float * float) list; (* (sign, utility), newest first *)
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
  let t =
    { f =
        { rate = Rate.to_bps initial_rate; srtt = 0.1; last_step = 0.;
          prev_pair_utility = neg_infinity; at = 0. };
      o = Cc_types.out ~cwnd:nan ~pace:nan;
      current = fresh_mi ~now:0. ~sign:1.; pending = []; utilities = [];
      amplifier = 0; started = false; doubling = true;
      none = fresh_mi ~now:nan ~sign:0. }
  in
  publish t;
  t

let[@inline] covers m sent_at =
  sent_at >= m.mi_start && (Float.is_nan m.mi_end || sent_at < m.mi_end)

let rec find_pending t = function
  | [] -> t.none
  | m :: rest -> if covers m t.f.at then m else find_pending t rest

(* Attribute an event to the monitor interval its packet was *sent* in
   ([t.f.at]): ACKs arrive one RTT after the probe rate that produced them
   applied.  [t.none] when no interval matches. *)
let find_mi t =
  if covers t.current t.f.at then t.current else find_pending t t.pending

let utility m ~dur =
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
  (x ** exponent)
  -. (b_coeff *. x *. Float.max 0. rtt_grad)
  -. (c_coeff *. x *. loss_rate)

let apply_pair t ~u_plus ~u_minus =
  let f = t.f in
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

(* score the intervals whose ACKs have all had time to arrive by the
   tick's instant [t.f.at] *)
let rec drain t =
  match t.pending with
  | m :: rest when t.f.at > m.mi_end +. (1.5 *. t.f.srtt) ->
    t.pending <- rest;
    score_mi t m;
    drain t
  | _ -> ()

let on_tick t (tk : Cc_types.tick) =
  let now = Time.to_secs tk.now in
  if t.started then begin
    let mi_len = Float.max t.f.srtt 0.05 in
    (* rotate the current interval *)
    if now -. t.current.mi_start >= mi_len then begin
      t.current.mi_end <- now;
      t.pending <- t.pending @ [ t.current ];
      t.current <- fresh_mi ~now ~sign:(-.t.current.sign)
    end;
    t.f.at <- now;
    drain t
  end
  else t.current <- fresh_mi ~now ~sign:1.;
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
