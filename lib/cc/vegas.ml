module Time = Units.Time

let mss_bytes = 1500

let mss = float_of_int mss_bytes

let initial_cwnd = 4

(* target backlog bounds, segments *)
let alpha = 2.

let beta = 4.

type t = {
  o : Cc_types.out; (* the window in bytes; never paced *)
  mutable next_update : float;
  mutable in_slow_start : bool;
  mutable ss_grow_toggle : bool;
  mutable last_cut : float;
}

let create () =
  { o = Cc_types.out ~cwnd:(float_of_int (mss_bytes * initial_cwnd)) ~pace:nan;
    next_update = 0.; in_slow_start = true; ss_grow_toggle = false;
    last_cut = neg_infinity }

let on_ack t (a : Cc_types.ack) =
  let now = Time.to_secs a.times.now in
  let srtt = Time.to_secs a.times.srtt in
  (* slow start doubles every other RTT *)
  if t.in_slow_start && t.ss_grow_toggle then
    t.o.cwnd <- t.o.cwnd +. float_of_int a.bytes;
  if now >= t.next_update then begin
    t.next_update <- now +. srtt;
    let rtt = Float.max srtt 1e-4 in
    let base = Float.max (Time.to_secs a.times.min_rtt) 1e-4 in
    let diff_segments = t.o.cwnd *. (1. -. (base /. rtt)) /. mss in
    if t.in_slow_start then begin
      t.ss_grow_toggle <- not t.ss_grow_toggle;
      if diff_segments > 1. then t.in_slow_start <- false
    end
    else if diff_segments < alpha then t.o.cwnd <- t.o.cwnd +. mss
    else if diff_segments > beta then
      t.o.cwnd <- Float.max (2. *. mss) (t.o.cwnd -. mss)
  end

let on_loss t (l : Cc_types.loss) =
  let now = Time.to_secs l.times.now in
  t.in_slow_start <- false;
  match l.kind with
  | `Timeout -> t.o.cwnd <- 2. *. mss
  | `Dupack ->
    if now > t.last_cut +. 0.1 then begin
      t.o.cwnd <- Float.max (2. *. mss) (t.o.cwnd /. 2.);
      t.last_cut <- now
    end

let cc t =
  Cc_types.make ~name:"vegas" ~on_ack:(on_ack t) ~on_loss:(on_loss t) t.o

let make () = cc (create ())
