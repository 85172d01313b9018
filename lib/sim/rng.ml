(* The 64-bit state lives in 8 bytes rather than a [mutable int64] field:
   every store of an [int64] into a record field boxes it (3 words per
   draw), while [Bytes.get/set_int64_ne] read and write it in place.
   [bits], [mix] and [uniform] are inlined, so a draw through [uniform],
   [bool] or [exponential] keeps the state unboxed end to end. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create seed = of_state (mix (Int64.of_int seed))

let[@inline] bits t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix s

let split t = of_state (bits t)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound <= 0";
  (* keep 62 bits so the conversion to OCaml's 63-bit int stays positive *)
  let r = Int64.to_int (Int64.shift_right_logical (bits t) 2) in
  r mod bound

(* 53 random mantissa bits -> [0, 1) *)
let[@inline] uniform t =
  let r = Int64.shift_right_logical (bits t) 11 in
  Int64.to_float r *. 0x1.0p-53

let float t x = uniform t *. x

let range t ~lo ~hi = lo +. (uniform t *. (hi -. lo))

let bool t ~p = uniform t < p

let exponential t ~mean =
  if mean <= 0. then invalid_arg "Rng.exponential: mean <= 0";
  let u = 1.0 -. uniform t in
  -.mean *. log u

let normal t =
  let u1 = 1.0 -. uniform t in
  let u2 = uniform t in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. 4.0 *. atan 1.0 *. u2)

let lognormal t ~mu ~sigma = exp (mu +. (sigma *. normal t))

let pareto t ~shape ~scale =
  if shape <= 0. || scale <= 0. then invalid_arg "Rng.pareto: non-positive parameter";
  let u = 1.0 -. uniform t in
  scale /. (u ** (1.0 /. shape))
