module Time = Units.Time
module Rate = Units.Rate

(* Internals stay raw float (bits/s, seconds) — the typed boundary is the
   .mli; wrap/unwrap happens once per call. *)

let[@inline] measurable send_rate recv_rate =
  not
    (Float.is_nan send_rate || Float.is_nan recv_rate || send_rate <= 0.
    || recv_rate <= 0.)

let estimate ~mu ~send_rate ~recv_rate =
  let mu = Rate.to_bps mu in
  let send_rate = Rate.to_bps send_rate in
  let recv_rate = Rate.to_bps recv_rate in
  if mu <= 0. then invalid_arg "Z_estimator.estimate: mu <= 0";
  if not (measurable send_rate recv_rate) then Rate.unknown
  else begin
    let z = (mu *. send_rate /. recv_rate) -. send_rate in
    Rate.bps (Float.max 0. (Float.min mu z))
  end

(* The same arithmetic on unboxed inputs, one store per arm: an [if] that
   returns a constant or a boxed argument in one arm boxes the other, so
   [Float.max 0. z] is spelled out (the same bits for every [z], -0 and
   NaN included). *)
let estimate_to reg i =
  let mu = Float.Array.get reg i in
  let send_rate = Float.Array.get reg (i + 1) in
  let recv_rate = Float.Array.get reg (i + 2) in
  if mu <= 0. then invalid_arg "Z_estimator.estimate: mu <= 0";
  if not (measurable send_rate recv_rate) then
    Float.Array.set reg (i + 3) (Rate.to_bps Rate.unknown)
  else begin
    let z = Float.min mu ((mu *. send_rate /. recv_rate) -. send_rate) in
    if z > 0. || Float.is_nan z then Float.Array.set reg (i + 3) z
    else Float.Array.set reg (i + 3) 0.
  end
[@@alloc_free]

module Mu = struct
  module Extremum = Nimbus_dsp.Extremum

  (* µ is the value slot of the max filter's register, written only by the
     front query in [observe]: [current] writes the time slot alone, so an
     estimate stores unboxed and costs no record of its own *)
  type t =
    | Known of float
    | Estimated of {
        window : float;
        f : Extremum.t;
      }

  let known rate = Known (Rate.to_bps rate)

  let estimator ?(window = Time.secs 10.) () =
    Estimated { window = Time.to_secs window; f = Extremum.max () }

  (* drop the samples older than [now - window] *)
  let[@inline] prune f ~window now =
    Float.Array.set (Extremum.reg f) 0 (now -. window);
    Extremum.prune f

  let observe t ~now ~recv_rate =
    match t with
    | Known _ -> ()
    | Estimated { window; f } ->
      let now = Time.to_secs now in
      let recv_rate = Rate.to_bps recv_rate in
      (* is_finite, not is_nan: a +inf sample would win the max and report
         an infinite µ for a whole window *)
      if Float.is_finite recv_rate && recv_rate > 0. then begin
        let reg = Extremum.reg f in
        Float.Array.set reg 0 now;
        Float.Array.set reg 1 recv_rate;
        Extremum.push f;
        prune f ~window now;
        Extremum.front f
      end

  (* the estimate moves only in [observe]; pruning here only forgets *)
  let current t ~now =
    match t with
    | Known r -> Rate.bps r
    | Estimated { window; f } ->
      prune f ~window (Time.to_secs now);
      let best = Float.Array.get (Extremum.reg f) 1 in
      if Float.is_finite best then Rate.bps best else Rate.unknown
end
