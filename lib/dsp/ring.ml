(* The buffer is allocated at the first push, not by [create]: a detector's
   500-sample ring is a 501-word block, which goes straight to the major
   heap, and making it while a flow is set up can run a major slice that
   an earlier run left pending.  Until the first push [buf] is empty and
   [count] is 0, so every reader below must accept an empty [buf]. *)
type t = {
  cap : int;
  mutable buf : float array;
  mutable head : int; (* next write position *)
  mutable count : int;
}

let create n =
  if n <= 0 then invalid_arg "Ring.create: capacity <= 0";
  { cap = n; buf = [||]; head = 0; count = 0 }

let capacity t = t.cap

let count t = t.count

let is_full t = t.count = t.cap

(* inlined into both forms below: a float passed to a call is boxed *)
let[@inline] push_raw t x =
  if Array.length t.buf = 0 then t.buf <- Array.make t.cap 0.;
  let n = t.cap in
  t.buf.(t.head) <- x;
  t.head <- (if t.head = n - 1 then 0 else t.head + 1);
  if t.count < n then t.count <- t.count + 1

let push t x = push_raw t x

let push_at t src i = push_raw t (Float.Array.get src i)

(* The stored samples, oldest first, are the two contiguous segments
   [buf.(start .. start + first - 1)] and [buf.(0 .. count - first - 1)]:
   the readers below walk them in that order, with no index arithmetic
   per sample. *)
let[@inline] start t =
  let n = Array.length t.buf in
  if n = 0 then 0 else (t.head - t.count + n) mod n

let[@inline] first_len t start = min t.count (Array.length t.buf - start)

let blit_to t dst =
  if Array.length dst < t.count then invalid_arg "Ring.blit_to: dst too small";
  let start = start t in
  let first = first_len t start in
  Array.blit t.buf start dst 0 first;
  if first < t.count then Array.blit t.buf 0 dst first (t.count - first)

let to_array t =
  let xs = Array.make t.count 0. in
  blit_to t xs;
  xs

let[@inline] sum t =
  let start = start t in
  let first = first_len t start in
  let buf = t.buf in
  let acc = ref 0. in
  for i = start to start + first - 1 do
    acc := !acc +. Array.unsafe_get buf i
  done;
  for i = 0 to t.count - first - 1 do
    acc := !acc +. Array.unsafe_get buf i
  done;
  !acc
[@@alloc_free]

let sum_to t dst i = Float.Array.set dst i (sum t) [@@alloc_free]

let last t =
  if t.count = 0 then invalid_arg "Ring.last: empty";
  t.buf.((t.head - 1 + Array.length t.buf) mod Array.length t.buf)

let nth_from_end t k =
  if k < 0 || k >= t.count then invalid_arg "Ring.nth_from_end: out of range";
  let n = Array.length t.buf in
  t.buf.(((t.head - 1 - k) mod n + n) mod n)

let clear t =
  t.head <- 0;
  t.count <- 0

let fold t ~init ~f =
  let start = start t in
  let first = first_len t start in
  let acc = ref init in
  for i = start to start + first - 1 do
    acc := f !acc t.buf.(i)
  done;
  for i = 0 to t.count - first - 1 do
    acc := f !acc t.buf.(i)
  done;
  !acc
