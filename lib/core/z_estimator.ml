module Time = Units.Time
module Rate = Units.Rate

(* Internals stay raw float (bits/s, seconds) — the typed boundary is the
   .mli; wrap/unwrap happens once per call. *)

let estimate ~mu ~send_rate ~recv_rate =
  let mu = Rate.to_bps mu in
  let send_rate = Rate.to_bps send_rate in
  let recv_rate = Rate.to_bps recv_rate in
  if mu <= 0. then invalid_arg "Z_estimator.estimate: mu <= 0";
  if
    Float.is_nan send_rate || Float.is_nan recv_rate || send_rate <= 0.
    || recv_rate <= 0.
  then Rate.unknown
  else begin
    let z = (mu *. send_rate /. recv_rate) -. send_rate in
    Rate.bps (Float.max 0. (Float.min mu z))
  end

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
