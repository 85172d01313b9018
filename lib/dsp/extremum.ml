(* The entries that can still be the window's extremum, oldest first: times
   ascending and signed values strictly decreasing, in a power-of-two ring
   of two parallel float arrays (live in [head, head + len) mod capacity).
   A min filter stores its values negated ([sign = -1.]), which is exact,
   so the one max code path serves both. *)
type t = {
  sign : float;
  reg : Float.Array.t;
  mutable times : Float.Array.t;
  mutable values : Float.Array.t;
  mutable head : int;
  mutable len : int;
}

let create sign =
  { sign; reg = Float.Array.make 2 nan; times = Float.Array.create 0;
    values = Float.Array.create 0; head = 0; len = 0 }

let max () = create 1.

let min () = create (-1.)

let reg t = t.reg

let[@inline] slot t k = (t.head + k) land (Float.Array.length t.times - 1)

let grow t =
  let cap = Float.Array.length t.times in
  let ncap = Int.max 16 (2 * cap) in
  let times = Float.Array.make ncap 0. and values = Float.Array.make ncap 0. in
  for k = 0 to t.len - 1 do
    Float.Array.set times k (Float.Array.get t.times (slot t k));
    Float.Array.set values k (Float.Array.get t.values (slot t k))
  done;
  t.times <- times;
  t.values <- values;
  t.head <- 0

let push t =
  let v = t.sign *. Float.Array.get t.reg 1 in
  if not (Float.is_nan v) then begin
    while t.len > 0 && Float.Array.get t.values (slot t (t.len - 1)) <= v do
      t.len <- t.len - 1
    done;
    if t.len = Float.Array.length t.times then
      (grow t [@alloc_ok "amortized capacity doubling"]);
    let i = slot t t.len in
    Float.Array.set t.times i (Float.Array.get t.reg 0);
    Float.Array.set t.values i v;
    t.len <- t.len + 1
  end
[@@alloc_free]

let prune t =
  let horizon = Float.Array.get t.reg 0 in
  while t.len > 0 && Float.Array.get t.times t.head < horizon do
    t.head <- slot t 1;
    t.len <- t.len - 1
  done
[@@alloc_free]

let front t =
  Float.Array.set t.reg 1
    (if t.len = 0 then t.sign *. neg_infinity
     else t.sign *. Float.Array.get t.values t.head)
[@@alloc_free]

(* the entries at or after the horizon are a suffix of the deque, and its
   oldest entry holds the suffix's extremum *)
let standing t =
  let horizon = Float.Array.get t.reg 0 in
  let k = ref t.len in
  while !k > 0 && Float.Array.get t.times (slot t (!k - 1)) >= horizon do
    decr k
  done;
  Float.Array.set t.reg 1
    (if !k = t.len then t.sign *. neg_infinity
     else t.sign *. Float.Array.get t.values (slot t !k))
[@@alloc_free]
