module Time = Units.Time

let mss = float_of_int 1500

let initial_cwnd = 10

(* the window is the published slot; the rest is a record of floats only,
   which stores unboxed *)
type state = {
  mutable ssthresh : float; (* bytes *)
  mutable recovery_until : float;
  mutable srtt : float;
}

type t = {
  o : Cc_types.out; (* the window in bytes; never paced *)
  s : state;
}

let create () =
  { o = Cc_types.out ~cwnd:(mss *. float_of_int initial_cwnd) ~pace:nan;
    s = { ssthresh = infinity; recovery_until = neg_infinity; srtt = 0.1 } }

let on_ack t (a : Cc_types.ack) =
  let s = t.s and o = t.o in
  s.srtt <- Time.to_secs a.times.srtt;
  if o.cwnd < s.ssthresh then o.cwnd <- o.cwnd +. float_of_int a.bytes
  else o.cwnd <- o.cwnd +. (mss *. float_of_int a.bytes /. o.cwnd)

let on_loss t (l : Cc_types.loss) =
  let s = t.s and o = t.o in
  let now = Time.to_secs l.times.now in
  match l.kind with
  | `Timeout ->
    s.ssthresh <- Float.max (o.cwnd /. 2.) (2. *. mss);
    o.cwnd <- 2. *. mss;
    s.recovery_until <- now +. s.srtt
  | `Dupack ->
    if now > s.recovery_until then begin
      s.ssthresh <- Float.max (o.cwnd /. 2.) (2. *. mss);
      o.cwnd <- s.ssthresh;
      s.recovery_until <- now +. s.srtt
    end

let cc t =
  Cc_types.make ~name:"reno" ~on_ack:(on_ack t) ~on_loss:(on_loss t) t.o

let make () = cc (create ())
