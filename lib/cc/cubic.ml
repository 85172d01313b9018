module Time = Units.Time
module B = Units.Bytes

let mss = float_of_int 1500

let initial_cwnd = 10

let c = 0.4

let beta = 0.7

(* The window is the published slot itself ([o.cwnd]); the rest lives in
   a record of floats only, which stores unboxed, so an ACK writes no box
   (DESIGN.md §13, the [-opaque] rule). *)
type state = {
  mutable w_max : float; (* bytes *)
  mutable ssthresh : float; (* bytes *)
  mutable epoch_start : float; (* NaN until the epoch starts *)
  mutable k : float;
  mutable origin : float; (* bytes *)
  mutable recovery_until : float;
  mutable srtt : float;
}

type t = {
  o : Cc_types.out; (* the window in bytes; never paced *)
  s : state;
}

let initial_cwnd_bytes = mss *. float_of_int initial_cwnd

(* the one initialiser: [create] is [reset] on a new record, so a reset
   controller is a fresh one, bit for bit *)
let reset t =
  t.o.cwnd <- initial_cwnd_bytes;
  let s = t.s in
  s.w_max <- 0.;
  s.ssthresh <- infinity;
  s.epoch_start <- nan;
  s.k <- 0.;
  s.origin <- 0.;
  s.recovery_until <- neg_infinity;
  s.srtt <- 0.1
[@@alloc_free]

let create () =
  let t =
    { o = Cc_types.out ~cwnd:initial_cwnd_bytes ~pace:nan;
      s =
        { w_max = 0.; ssthresh = 0.; epoch_start = 0.; k = 0.; origin = 0.;
          recovery_until = 0.; srtt = 0. } }
  in
  reset t;
  t

let reset_cwnd t bytes =
  let w = Float.max (2. *. mss) (B.to_float bytes) in
  t.o.cwnd <- w;
  t.s.w_max <- w;
  t.s.ssthresh <- w;
  t.s.epoch_start <- nan

let cbrt x = if x < 0. then -.((-.x) ** (1. /. 3.)) else x ** (1. /. 3.)

let on_ack t (a : Cc_types.ack) =
  let s = t.s and o = t.o in
  let srtt = Time.to_secs a.times.srtt in
  s.srtt <- srtt;
  if o.cwnd < s.ssthresh then o.cwnd <- o.cwnd +. float_of_int a.bytes
  else begin
    let now = Time.to_secs a.times.now in
    if Float.is_nan s.epoch_start then begin
      s.epoch_start <- now;
      if o.cwnd < s.w_max then begin
        s.k <- cbrt ((s.w_max -. o.cwnd) /. (mss *. c));
        s.origin <- s.w_max
      end
      else begin
        s.k <- 0.;
        s.origin <- o.cwnd
      end
    end;
    (* target window one RTT in the future, per the Linux implementation *)
    let time = now -. s.epoch_start +. srtt in
    let dt = time -. s.k in
    let target = s.origin +. (c *. dt *. dt *. dt *. mss) in
    if target > o.cwnd then
      o.cwnd <- o.cwnd +. ((target -. o.cwnd) *. float_of_int a.bytes /. o.cwnd)
    else
      (* plateau: inch upward so the flow is never fully static *)
      o.cwnd <- o.cwnd +. (0.01 *. mss *. float_of_int a.bytes /. o.cwnd);
    (* TCP-friendly region *)
    let rtt = Float.max srtt 1e-4 in
    let w_est =
      (s.w_max *. beta)
      +. (3. *. (1. -. beta) /. (1. +. beta) *. (time /. rtt) *. mss)
    in
    if w_est > o.cwnd then o.cwnd <- w_est
  end

let on_loss t (l : Cc_types.loss) =
  let s = t.s and o = t.o in
  let now = Time.to_secs l.times.now in
  match l.kind with
  | `Timeout ->
    s.w_max <- o.cwnd;
    s.ssthresh <- Float.max (o.cwnd *. beta) (2. *. mss);
    o.cwnd <- 2. *. mss;
    s.epoch_start <- nan;
    s.recovery_until <- now +. s.srtt
  | `Dupack ->
    if now > s.recovery_until then begin
      (* fast convergence *)
      s.w_max <-
        (if o.cwnd < s.w_max then o.cwnd *. (1. +. beta) /. 2. else o.cwnd);
      o.cwnd <- Float.max (o.cwnd *. beta) (2. *. mss);
      s.ssthresh <- o.cwnd;
      s.epoch_start <- nan;
      s.recovery_until <- now +. s.srtt
    end

let cc t =
  Cc_types.make ~name:"cubic"
    ~on_ack:(fun a -> on_ack t a)
    ~on_loss:(fun l -> on_loss t l)
    t.o

let make () = cc (create ())
