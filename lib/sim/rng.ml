(* The 64-bit state lives in 8 bytes rather than a [mutable int64] field:
   every store of an [int64] into a record field boxes it (3 words per
   draw), while [Bytes.get/set_int64_ne] read and write it in place.
   [bits], [mix] and [uniform] are inlined, so a draw through [uniform],
   [bool] or [exponential_to] keeps the state unboxed end to end. *)
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

(* A [_to] form writes the draw into slot 0 of the register, unboxed: a
   float returned across a module boundary is a fresh 2-word box
   (DESIGN.md §13, the [-opaque] rule).  [range] keeps a value form too, so
   both share one inlined core, consume the stream alike and give the same
   bits. *)

let[@inline] range_raw t ~lo ~hi = lo +. (uniform t *. (hi -. lo))

let range t ~lo ~hi = range_raw t ~lo ~hi

let range_to t ~lo ~hi reg =
  Float.Array.unsafe_set reg 0
    (range_raw t ~lo ~hi [@alloc_ok "inlined: the draw stays unboxed"])
[@@alloc_free]

(* inlined, so a probability computed by the caller reaches the compare
   unboxed *)
let[@inline] bool t ~p =
  (uniform t [@alloc_ok "inlined: the int64 state and the draw stay unboxed"])
  < p
[@@alloc_free]

let bool_at t ps i = bool t ~p:(Float.Array.get ps i) [@@alloc_free]

let exponential_to t ~mean reg =
  if mean <= 0. then invalid_arg "Rng.exponential_to: mean <= 0";
  let u =
    1.0 -. (uniform t [@alloc_ok "inlined: the draw stays unboxed"])
  in
  Float.Array.unsafe_set reg 0 (-.mean *. log u)
[@@alloc_free]

let[@inline] normal t =
  let u1 = 1.0 -. uniform t in
  let u2 = uniform t in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. 4.0 *. atan 1.0 *. u2)

let lognormal_to t ~mu ~sigma reg =
  Float.Array.unsafe_set reg 0
    (exp (mu +. (sigma *. normal t))
    [@alloc_ok "inlined: the draw stays unboxed"])
[@@alloc_free]

let pareto_to t ~shape ~scale reg =
  if shape <= 0. || scale <= 0. then
    invalid_arg "Rng.pareto_to: non-positive parameter";
  let u =
    1.0 -. (uniform t [@alloc_ok "inlined: the draw stays unboxed"])
  in
  Float.Array.unsafe_set reg 0 (scale /. (u ** (1.0 /. shape)))
[@@alloc_free]
