module Time = Units.Time
module Rate = Units.Rate
module B = Units.Bytes

(* Eq. 4's spare-capacity step α, delay-correction gain β and queueing-delay
   target d_t *)
let alpha = 0.8

let beta = 0.5

let delay_target = Time.to_secs (Time.ms 12.5)

(* [rate] is written once per tick and read across the module boundary
   (by Nimbus) more often, so it stays a boxed field that a read returns as
   is; [mu] and [srtt] live in a record of floats only, which stores them
   unboxed (the split [Cubic] makes). *)
type state = {
  mutable mu : float;
  mutable srtt : float;
}

type t = {
  mutable rate : float; (* bps *)
  s : state;
}

let create ~mu () =
  let mu = Rate.to_bps (Rate.bps_exn (Rate.to_bps mu)) in
  { rate = mu /. 10.; s = { mu; srtt = 0.1 } }

let rate t = Rate.bps t.rate

let set_mu t mu =
  let mu = Rate.to_bps mu in
  if mu > 0. then t.s.mu <- mu

(* inlined: the tick calls it with a raw float, which a call would box *)
let[@inline] clamp_rate t r = Float.max 50_000. (Float.min (1.2 *. t.s.mu) r)
[@@alloc_free]

let set_rate t r = t.rate <- clamp_rate t (Rate.to_bps r)

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
      t.rate <- clamp_rate t rate
    end
  end

let cc t =
  { Cc_types.name = "basicdelay";
    on_ack = (fun _ -> ());
    on_loss = (fun _ -> ());
    on_tick = Some (update t);
    cwnd =
      (fun () ->
        B.bytes (Float.max (4. *. 1500.) (2. *. t.rate *. t.s.srtt /. 8.)));
    pacing_rate = (fun () -> Some (Rate.bps t.rate)) }

let make ~mu () = cc (create ~mu ())
