(* Allocation-pass fixture (test-only).  clean_* must verify; bad_* must
   each be flagged with the rule named in the comment. *)

(* verifies: scalar arithmetic, array stores, local non-escaping ref *)
let clean_sum xs =
  let acc = ref 0. in
  for i = 0 to Array.length xs - 1 do
    acc := !acc +. xs.(i)
  done;
  !acc
[@@alloc_free]

(* verifies: calls another visible definition that is itself clean *)
let clean_caller xs = clean_sum xs +. 1.
[@@alloc_free]

(* verifies: the allocation is acknowledged with a reasoned [@alloc_ok] *)
let clean_suppressed n =
  Array.length ((Array.make n 0) [@alloc_ok "fixture: acknowledged"])
[@@alloc_free]

(* verifies: in-place float-array slots and 8-byte integer state, the
   unboxed stores of the packet path and the Rng *)
let clean_slots (a : Float.Array.t) (b : Bytes.t) =
  Float.Array.set a 0 (Float.Array.get a 1 +. 1.);
  Float.Array.unsafe_set a 1 (Float.Array.unsafe_get a 0);
  Bytes.set_int64_ne b 0 (Bytes.get_int64_ne b 0)
[@@alloc_free]

(* verifies: an identity primitive compiles to nothing *)
external id_secs : float -> float = "%identity"

let clean_identity x = id_secs x +. 1.
[@@alloc_free]

(* alloc-tuple *)
let bad_tuple x = (x, x + 1)
[@@alloc_free]

(* alloc-closure: the local function captures k *)
let bad_closure k =
  let add x = x + k in
  add 1
[@@alloc_free]

(* alloc-call: Array.make is known-allocating *)
let bad_array_make n = Array.make n 0
[@@alloc_free]

(* alloc-construct *)
let bad_some x = Some x
[@@alloc_free]

(* alloc-ref-escape: the ref itself is returned *)
let bad_ref_escape x =
  let r = ref x in
  r
[@@alloc_free]

(* alloc-callee: calls a visible definition that allocates *)
let helper_allocates x = [ x ]

let bad_caller x = helper_allocates x
[@@alloc_free]

(* alloc-bare-suppression: an [@alloc_ok] without a reason string is itself
   a finding, though it still swallows the allocation underneath *)
let bad_bare n = Array.length ((Array.make n 0) [@alloc_ok])
[@@alloc_free]
