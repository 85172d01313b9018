(* The average lives in a record of floats only, which OCaml stores flat, so
   an update writes it without allocating; a mutable float field of the
   mixed record would take a fresh box on every write. *)
type state = {
  alpha : float;
  mutable avg : float;
}

type t = {
  s : state;
  mutable initialized : bool;
}

let create ~alpha =
  if alpha <= 0. || alpha > 1. then invalid_arg "Ewma.create: alpha not in (0,1]";
  { s = { alpha; avg = 0. }; initialized = false }

let create_time_constant ~tau ~dt =
  if tau <= 0. || dt <= 0. then
    invalid_arg "Ewma.create_time_constant: non-positive tau or dt";
  create ~alpha:(1.0 -. exp (-.dt /. tau))

let create_cutoff ~freq ~dt =
  if freq <= 0. then invalid_arg "Ewma.create_cutoff: non-positive freq";
  let tau = 1.0 /. (2.0 *. 4.0 *. atan 1.0 *. freq) in
  create_time_constant ~tau ~dt

(* inlined into both forms below: a float passed to a call is boxed *)
let[@inline] update_raw t x =
  let s = t.s in
  if t.initialized then s.avg <- s.avg +. (s.alpha *. (x -. s.avg))
  else begin
    s.avg <- x;
    t.initialized <- true
  end

let update t x = update_raw t x [@@alloc_free]

let update_at t src i = update_raw t (Float.Array.get src i) [@@alloc_free]

let value t = t.s.avg

let initialized t = t.initialized

let reset t =
  t.s.avg <- 0.;
  t.initialized <- false
