module Rng = Nimbus_sim.Rng

type t = {
  loss_rng : Rng.t;
  state_rng : Rng.t;
  p_enter : float;
  p_exit : float;
  loss_good : float;
  loss_bad : float;
  mutable bad : bool;
  mutable offered : int;
  mutable dropped : int;
}

let check_p name p =
  if not (Float.is_finite p) || p < 0. || p > 1. then
    invalid_arg (Printf.sprintf "Gilbert_elliott: %s not in [0, 1]" name)

let create ~rng ~p_enter ~p_exit ~loss_good ~loss_bad () =
  check_p "p_enter" p_enter;
  check_p "p_exit" p_exit;
  check_p "loss_good" loss_good;
  check_p "loss_bad" loss_bad;
  (* the state chain consumes a separate stream so that when the two states
     have identical loss probabilities the drop decisions are *exactly* the
     Bernoulli stream a uniform random_loss would draw from [rng] *)
  let state_rng = Rng.split rng in
  { loss_rng = rng; state_rng; p_enter; p_exit; loss_good; loss_bad;
    bad = false; offered = 0; dropped = 0 }

let drop t =
  let p = if t.bad then t.loss_bad else t.loss_good in
  let lost = Rng.bool t.loss_rng ~p in
  (if t.bad then begin
     if Rng.bool t.state_rng ~p:t.p_exit then t.bad <- false
   end
   else if Rng.bool t.state_rng ~p:t.p_enter then t.bad <- true);
  t.offered <- t.offered + 1;
  if lost then t.dropped <- t.dropped + 1;
  lost

let offered t = t.offered

let dropped t = t.dropped

let observed_loss t =
  if t.offered = 0 then nan
  else float_of_int t.dropped /. float_of_int t.offered

let stationary_loss ~p_enter ~p_exit ~loss_good ~loss_bad =
  check_p "p_enter" p_enter;
  check_p "p_exit" p_exit;
  check_p "loss_good" loss_good;
  check_p "loss_bad" loss_bad;
  let denom = p_enter +. p_exit in
  if denom <= 0. then
    invalid_arg "Gilbert_elliott.stationary_loss: p_enter + p_exit = 0";
  let pi_bad = p_enter /. denom in
  ((1. -. pi_bad) *. loss_good) +. (pi_bad *. loss_bad)
