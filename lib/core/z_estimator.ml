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
  (* The samples of the window that can still be its maximum, oldest first:
     a monotone max-deque, times ascending and rates strictly decreasing, in
     a power-of-two ring of two parallel float arrays (live in
     [head, head + len) mod capacity).  It starts empty and doubles on
     demand, so an estimator that never sees a sample costs no buffer. *)
  type deque = {
    mutable times : Float.Array.t;
    mutable rates : Float.Array.t;
    mutable head : int;
    mutable len : int;
  }

  (* floats only, so that writing [best] on every sample boxes nothing *)
  type est = {
    window : float;
    mutable best : float;
  }

  type kind =
    | Known of float
    | Estimated of est * deque

  type t = kind ref

  let known rate = ref (Known (Rate.to_bps rate))

  let estimator ?(window = Time.secs 10.) () =
    ref
      (Estimated
         ( { window = Time.to_secs window; best = nan },
           { times = Float.Array.create 0; rates = Float.Array.create 0;
             head = 0; len = 0 } ))

  let[@inline] slot q k = (q.head + k) land (Float.Array.length q.times - 1)

  let grow q =
    let cap = Float.Array.length q.times in
    let ncap = max 16 (2 * cap) in
    let times = Float.Array.make ncap 0. and rates = Float.Array.make ncap 0. in
    for k = 0 to q.len - 1 do
      Float.Array.set times k (Float.Array.get q.times (slot q k));
      Float.Array.set rates k (Float.Array.get q.rates (slot q k))
    done;
    q.times <- times;
    q.rates <- rates;
    q.head <- 0

  (* drop the samples older than [horizon] from the front *)
  let[@inline] prune q horizon =
    while q.len > 0 && Float.Array.get q.times q.head < horizon do
      q.head <- slot q 1;
      q.len <- q.len - 1
    done

  (* append a sample, first dropping from the back every sample it
     dominates: none of them can be the maximum again *)
  let[@inline] push q ~at ~rate =
    while q.len > 0 && Float.Array.get q.rates (slot q (q.len - 1)) <= rate do
      q.len <- q.len - 1
    done;
    if q.len = Float.Array.length q.times then grow q;
    let i = slot q q.len in
    Float.Array.set q.times i at;
    Float.Array.set q.rates i rate;
    q.len <- q.len + 1

  let observe t ~now ~recv_rate =
    match !t with
    | Known _ -> ()
    | Estimated (e, q) ->
      let now = Time.to_secs now in
      let recv_rate = Rate.to_bps recv_rate in
      (* is_finite, not is_nan: a +inf sample would win the max and report
         an infinite µ for a whole window *)
      if Float.is_finite recv_rate && recv_rate > 0. then begin
        push q ~at:now ~rate:recv_rate;
        prune q (now -. e.window);
        (* the front is the window's maximum *)
        e.best <-
          (if q.len = 0 then neg_infinity else Float.Array.get q.rates q.head)
      end

  (* [best] is recomputed only by [observe]; pruning here only forgets *)
  let current t ~now =
    match !t with
    | Known r -> Rate.bps r
    | Estimated (e, q) ->
      prune q (Time.to_secs now -. e.window);
      if Float.is_finite e.best then Rate.bps e.best else Rate.unknown
end
