module Time = Units.Time
module Rate = Units.Rate

(* Eq. 4's spare-capacity step α, delay-correction gain β and queueing-delay
   target d_t *)
let alpha = 0.8

let beta = 0.5

let delay_target = Time.to_secs (Time.ms 12.5)

(* The rate is the published pacing slot itself ([o.pace]), and the
   window that caps it is published with it; [mu] and [srtt] live in a
   record of floats only, which stores them unboxed. *)
type state = {
  mutable mu : float;
  mutable srtt : float;
}

type t = {
  o : Cc_types.out; (* the rate in bits/s, and the window it implies *)
  s : state;
}

(* the window cap of 2·rate·RTT, written with every rate or RTT change *)
let publish t =
  t.o.cwnd <- Float.max (4. *. 1500.) (2. *. t.o.pace *. t.s.srtt /. 8.)
[@@alloc_free]

let create ~mu () =
  let mu = Rate.to_bps (Rate.bps_exn (Rate.to_bps mu)) in
  let t =
    { o = Cc_types.out ~cwnd:nan ~pace:(mu /. 10.); s = { mu; srtt = 0.1 } }
  in
  publish t;
  t

let set_mu t mu =
  let mu = Rate.to_bps mu in
  if mu > 0. then t.s.mu <- mu

(* inlined: the tick calls it with a raw float, which a call would box *)
let[@inline] clamp_rate t r = Float.max 50_000. (Float.min (1.2 *. t.s.mu) r)
[@@alloc_free]

let set_rate t r =
  t.o.pace <- clamp_rate t (Rate.to_bps r);
  publish t

let update t (tk : Cc_types.tick) =
  if Time.is_known tk.srtt then t.s.srtt <- Time.to_secs tk.srtt;
  if Rate.is_known tk.send_rate && Rate.is_known tk.recv_rate then begin
    let s = Rate.to_bps tk.send_rate
    and r = Float.max (Rate.to_bps tk.recv_rate) 1e3 in
    let z = Float.max 0. ((t.s.mu *. s /. r) -. s) in
    let x = Time.to_secs tk.rtt and x_min = Time.to_secs tk.min_rtt in
    if not (Float.is_nan x || Float.is_nan x_min) then begin
      let spare = t.s.mu -. s -. z in
      let rate =
        s
        +. (alpha *. spare)
        +. (beta *. t.s.mu /. x *. (x_min +. delay_target -. x))
      in
      t.o.pace <- clamp_rate t rate
    end
  end;
  publish t

let cc t =
  Cc_types.make ~name:"basicdelay" ~on_ack:ignore ~on_loss:ignore
    ~on_tick:(update t) t.o

let make ~mu () = cc (create ~mu ())
