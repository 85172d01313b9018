module Time = Units.Time
module B = Units.Bytes

let mss = float_of_int 1500

let initial_cwnd = 10

type t = {
  mutable cwnd : float; (* bytes *)
  mutable ssthresh : float; (* bytes *)
  mutable recovery_until : float;
  mutable srtt : float;
}

let create () =
  { cwnd = mss *. float_of_int initial_cwnd;
    ssthresh = infinity; recovery_until = neg_infinity; srtt = 0.1 }

let cwnd_bytes t = B.bytes t.cwnd

let on_ack t (a : Cc_types.ack) =
  t.srtt <- Time.to_secs a.times.srtt;
  if t.cwnd < t.ssthresh then t.cwnd <- t.cwnd +. float_of_int a.bytes
  else t.cwnd <- t.cwnd +. (mss *. float_of_int a.bytes /. t.cwnd)

let on_loss t (l : Cc_types.loss) =
  let now = Time.to_secs l.times.now in
  match l.kind with
  | `Timeout ->
    t.ssthresh <- Float.max (t.cwnd /. 2.) (2. *. mss);
    t.cwnd <- 2. *. mss;
    t.recovery_until <- now +. t.srtt
  | `Dupack ->
    if now > t.recovery_until then begin
      t.ssthresh <- Float.max (t.cwnd /. 2.) (2. *. mss);
      t.cwnd <- t.ssthresh;
      t.recovery_until <- now +. t.srtt
    end

let cc t =
  { Cc_types.name = "reno";
    on_ack = on_ack t;
    on_loss = on_loss t;
    on_tick = None;
    cwnd = (fun () -> B.bytes t.cwnd);
    pacing_rate = (fun () -> None) }

let make () = cc (create ())
