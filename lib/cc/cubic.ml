module Time = Units.Time
module B = Units.Bytes

let mss = float_of_int 1500

let initial_cwnd = 10

let c = 0.4

let beta = 0.7

type t = {
  mutable cwnd : float; (* bytes *)
  mutable w_max : float; (* bytes *)
  mutable ssthresh : float; (* bytes *)
  mutable epoch_start : float option;
  mutable k : float;
  mutable origin : float; (* bytes *)
  mutable recovery_until : float;
  mutable srtt : float;
}

let create () =
  { cwnd = mss *. float_of_int initial_cwnd;
    w_max = 0.; ssthresh = infinity; epoch_start = None; k = 0.; origin = 0.;
    recovery_until = neg_infinity; srtt = 0.1 }

let cwnd_bytes t = B.bytes t.cwnd

let reset_cwnd t bytes =
  t.cwnd <- Float.max (2. *. mss) (B.to_float bytes);
  t.w_max <- t.cwnd;
  t.ssthresh <- t.cwnd;
  t.epoch_start <- None

let cbrt x = if x < 0. then -.((-.x) ** (1. /. 3.)) else x ** (1. /. 3.)

let on_ack t (a : Cc_types.ack) =
  let srtt = Time.to_secs a.srtt in
  t.srtt <- srtt;
  if t.cwnd < t.ssthresh then t.cwnd <- t.cwnd +. float_of_int a.bytes
  else begin
    let now = Time.to_secs a.now in
    (match t.epoch_start with
    | Some _ -> ()
    | None ->
      t.epoch_start <- Some now;
      if t.cwnd < t.w_max then begin
        t.k <- cbrt ((t.w_max -. t.cwnd) /. (mss *. c));
        t.origin <- t.w_max
      end
      else begin
        t.k <- 0.;
        t.origin <- t.cwnd
      end);
    let epoch = Option.get t.epoch_start in
    (* target window one RTT in the future, per the Linux implementation *)
    let time = now -. epoch +. srtt in
    let dt = time -. t.k in
    let target = t.origin +. (c *. dt *. dt *. dt *. mss) in
    if target > t.cwnd then
      t.cwnd <-
        t.cwnd +. ((target -. t.cwnd) *. float_of_int a.bytes /. t.cwnd)
    else
      (* plateau: inch upward so the flow is never fully static *)
      t.cwnd <- t.cwnd +. (0.01 *. mss *. float_of_int a.bytes /. t.cwnd);
    (* TCP-friendly region *)
    let rtt = Float.max srtt 1e-4 in
    let w_est =
      (t.w_max *. beta)
      +. (3. *. (1. -. beta) /. (1. +. beta) *. (time /. rtt) *. mss)
    in
    if w_est > t.cwnd then t.cwnd <- w_est
  end

let on_loss t (l : Cc_types.loss) =
  let now = Time.to_secs l.now in
  match l.kind with
  | `Timeout ->
    t.w_max <- t.cwnd;
    t.ssthresh <- Float.max (t.cwnd *. beta) (2. *. mss);
    t.cwnd <- 2. *. mss;
    t.epoch_start <- None;
    t.recovery_until <- now +. t.srtt
  | `Dupack ->
    if now > t.recovery_until then begin
      (* fast convergence *)
      t.w_max <-
        (if t.cwnd < t.w_max then t.cwnd *. (1. +. beta) /. 2. else t.cwnd);
      t.cwnd <- Float.max (t.cwnd *. beta) (2. *. mss);
      t.ssthresh <- t.cwnd;
      t.epoch_start <- None;
      t.recovery_until <- now +. t.srtt
    end

let cc t =
  { Cc_types.name = "cubic";
    on_ack = on_ack t;
    on_loss = on_loss t;
    on_tick = None;
    cwnd = (fun () -> B.bytes t.cwnd);
    pacing_rate = (fun () -> None) }

let make () = cc (create ())
