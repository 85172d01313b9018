(* Calendar-queue event core: a 256-slot timer wheel for near-future events
   with a binary-heap overflow for far timers.

   Push and pop of a near-future event (within [nslots * width] of the
   cursor, a 65.5 ms horizon that covers packet serialisation, pacing, and
   RTT-scale timers at the 256 µs slot width) cost O(1) in the common case
   instead of the heap's O(log n), and nothing is boxed on the way in.

   One pool per wheel: every slot entry lives in the same parallel arrays
   (flat float keys / int seqs / values, exactly like {!Heap}, plus int
   [next]/[prev] links), and a slot is a doubly linked list through them,
   held as a head and a tail index.  Free entries are chained through
   [next], and the pool doubles when the chain runs dry, so its size
   follows the wheel's peak pending count, not each slot's own peak.

   Sorted slots: a slot's list is in (key, seq) order, so its minimum is
   always the head and a pop unlinks it.  A push links in from the tail.
   Its seq is the largest handed out so far, so it goes after every entry
   with a key <= its own: in-order arrivals and same-instant bursts
   (hundreds of flow ticks landing in one slot) link in O(1), and only an
   entry that undercuts later keys of its slot walks back over them.

   Entry 0 is the sentinel.  Index 0 ends every slot list and the free
   chain, its key ([neg_infinity]) stops every walk back from a tail, and
   its value is the filler a freed entry holds, so a popped payload is not
   kept alive.  The filler is the first value the pool stores: the arrays
   need a value of the payload's type, and [create] has none.

   Determinism: entries carry sequence numbers from one shared counter, and
   the pop rule is the global lexicographic (key, seq) minimum across both
   structures — the slot head against the heap top — so the pop order is
   *identical* to a single FIFO-tie-breaking heap's, under any push
   pattern.

   Occupancy is tracked in a two-level bitmap (8 words x 32 bits, one
   summary word), so finding the next non-empty slot is a handful of mask
   and count-trailing-zero steps, never a 256-slot walk.

   {!create} and the first push (a 64-entry pool) allocate only on the
   minor heap: every table has at most [Max_young_wosize] (256) fields.

   Keys must be finite and non-negative (the engine validates before
   pushing).  All wheel entries lie in absolute slots [cur, cur + nslots):
   physical slot p = abs land (nslots - 1) therefore holds entries of exactly
   one absolute slot, and the wrapped bitmap scan from the cursor's physical
   slot visits slots in absolute order.  The cursor only advances to the
   slot of a popped global minimum, which every remaining entry is >= by
   construction, so the invariant is maintained without migration sweeps. *)

let nslots = 256
let slot_mask = nslots - 1
let word_bits = 32
let nwords = nslots / word_bits (* 8: level-1 summary fits one int *)

(* slot width, seconds *)
let width = 256e-6

(* pool entries on the first push, the sentinel included *)
let first_cap = 64

type 'a t = {
  (* the pool: entry e is (keys.(e), seqs.(e), vals.(e)), linked to its
     slot neighbours by next.(e) and prev.(e); entry 0 is the sentinel *)
  mutable keys : float array;
  mutable seqs : int array;
  mutable vals : 'a array;
  mutable next : int array;
  mutable prev : int array;
  mutable free : int; (* first free entry, chained through [next]; 0 = none *)
  slot_head : int array; (* the slot's minimum entry; 0 = empty *)
  slot_tail : int array; (* its maximum entry; 0 = empty *)
  level0 : int array; (* occupancy bit per physical slot, 32 per word *)
  mutable level1 : int; (* bit w set iff level0.(w) <> 0 *)
  mutable cur : int; (* absolute slot index of the cursor *)
  mutable wheel_count : int;
  (* events at or beyond the wheel horizon.  Its minimum is read in place
     ([far.keys.(0)], [far.seqs.(0)]), never through [Heap.top_key]: a float
     returned across modules is boxed, and [locate] compares against the
     heap top on every pop while a far timer is pending. *)
  far : 'a Heap.t;
  mutable next_seq : int;
  (* cached location of the global minimum, invalidated by pops: -1 = none,
     0 = wheel (the head of cache_slot), 1 = heap top.  Ints only — a
     mutable float field in this mixed record would box on every write. *)
  mutable cache_where : int;
  mutable cache_slot : int;
  (* one-slot key register: {!push_reg} reads its key here and
     {!load_top_key} writes the minimum here, so no key crosses a module
     boundary as a boxed float argument or result *)
  reg : Float.Array.t;
}

let create () =
  {
    keys = [||];
    seqs = [||];
    vals = [||];
    next = [||];
    prev = [||];
    free = 0;
    slot_head = Array.make nslots 0;
    slot_tail = Array.make nslots 0;
    level0 = Array.make nwords 0;
    level1 = 0;
    cur = 0;
    wheel_count = 0;
    far = Heap.create ();
    next_seq = 0;
    cache_where = -1;
    cache_slot = 0;
    reg = Float.Array.make 1 0.;
  }

let key_reg t = t.reg

let size t = t.wheel_count + t.far.Heap.size

let is_empty t = size t = 0

(* count-trailing-zeros of a nonzero 32-bit value, by binary search *)
let ctz32 x =
  let n = ref 0 and x = ref x in
  if !x land 0xFFFF = 0 then begin
    n := !n + 16;
    x := !x lsr 16
  end;
  if !x land 0xFF = 0 then begin
    n := !n + 8;
    x := !x lsr 8
  end;
  if !x land 0xF = 0 then begin
    n := !n + 4;
    x := !x lsr 4
  end;
  if !x land 0x3 = 0 then begin
    n := !n + 2;
    x := !x lsr 2
  end;
  if !x land 0x1 = 0 then incr n;
  !n
[@@alloc_free]

let mark_slot t p =
  let w = p lsr 5 and b = p land 31 in
  t.level0.(w) <- t.level0.(w) lor (1 lsl b);
  t.level1 <- t.level1 lor (1 lsl w)
[@@alloc_free]

let unmark_slot t p =
  let w = p lsr 5 and b = p land 31 in
  t.level0.(w) <- t.level0.(w) land lnot (1 lsl b);
  if t.level0.(w) = 0 then t.level1 <- t.level1 land lnot (1 lsl w)
[@@alloc_free]

(* First occupied physical slot at or after [p0] in wrapped absolute order
   (p0 = cursor's physical slot).  Requires wheel_count > 0. *)
let first_occupied_from t p0 =
  let w0 = p0 lsr 5 and b0 = p0 land 31 in
  let high = t.level0.(w0) land lnot ((1 lsl b0) - 1) in
  if high <> 0 then (w0 lsl 5) lor ctz32 high
  else begin
    let later = t.level1 land lnot ((1 lsl (w0 + 1)) - 1) in
    if later <> 0 then begin
      let w = ctz32 later in
      (w lsl 5) lor ctz32 t.level0.(w)
    end
    else begin
      let earlier = t.level1 land ((1 lsl w0) - 1) in
      if earlier <> 0 then begin
        let w = ctz32 earlier in
        (w lsl 5) lor ctz32 t.level0.(w)
      end
      else
        (* the wrapped remainder of the cursor word *)
        (w0 lsl 5) lor ctz32 (t.level0.(w0) land ((1 lsl b0) - 1))
    end
  end
[@@alloc_free]

(* [a] copied into a fresh array of [n] entries, the rest [fill] *)
let extend a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Double the pool; it runs only when the free chain is empty, so every
   old entry but the sentinel is live and is copied as is.  The fresh
   values are the filler: on the first growth, [v], the value being
   pushed, which then stays in the sentinel for the wheel's lifetime. *)
let grow t v =
  let cap = Array.length t.keys in
  let ncap = if cap = 0 then first_cap else 2 * cap in
  t.keys <- extend t.keys ncap neg_infinity;
  t.seqs <- extend t.seqs ncap 0;
  t.vals <- extend t.vals ncap (if cap = 0 then v else t.vals.(0));
  t.next <- extend t.next ncap 0;
  t.prev <- extend t.prev ncap 0;
  let first = max cap 1 in
  for e = first to ncap - 2 do
    t.next.(e) <- e + 1
  done;
  t.free <- first

(* Link entry [e] into slot [p] right after entry [j] (0: as the head). *)
let link_after t p j e =
  let n = if j = 0 then t.slot_head.(p) else t.next.(j) in
  t.prev.(e) <- j;
  t.next.(e) <- n;
  if j <> 0 then t.next.(j) <- e
  else begin
    if n = 0 then mark_slot t p;
    t.slot_head.(p) <- e
  end;
  if n = 0 then t.slot_tail.(p) <- e else t.prev.(n) <- e
[@@alloc_free]

(* Unlink slot [p]'s head [e] and return it to the free chain, holding the
   filler instead of its payload. *)
let unlink_head t p e =
  let n = t.next.(e) in
  t.slot_head.(p) <- n;
  if n = 0 then begin
    t.slot_tail.(p) <- 0;
    unmark_slot t p
  end
  else t.prev.(n) <- 0;
  t.vals.(e) <- t.vals.(0);
  t.next.(e) <- t.free;
  t.free <- e
[@@alloc_free]

(* Is (key, seq) strictly before the cached global minimum?  Inlined: [key]
   is an unboxed local of [push_reg], and a call would box it. *)
let[@inline] beats_cache t key seq =
  if t.cache_where = 0 then begin
    let h = t.slot_head.(t.cache_slot) in
    let ck = t.keys.(h) in
    key < ck || (Float.equal key ck && seq < t.seqs.(h))
  end
  else begin
    let ck = t.far.Heap.keys.(0) in
    key < ck || (Float.equal key ck && seq < t.far.Heap.seqs.(0))
  end
[@@alloc_free]

let push_reg t v =
  let key = Float.Array.unsafe_get t.reg 0 in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  if key /. width -. float_of_int t.cur >= float_of_int nslots then begin
    (* far timer: spill to the heap, same shared sequence numbering *)
    (* the key goes over in its register, not as a float argument, which
       would box it on every far push (RTO arms, [Engine.every] ticks) *)
    Heap.push_seq t.far t.reg 0 ~seq v;
    (* if it became the global minimum, the cached location "heap top"
       remains valid by re-reading the top; otherwise the cache still points
       at the unchanged minimum *)
    if t.cache_where >= 0 && beats_cache t key seq then t.cache_where <- 1
  end
  else begin
    let p = int_of_float (key /. width) land slot_mask in
    if t.free = 0 then
      (grow t v [@alloc_ok "pool doubling: log2 of the peak pending count"]);
    let beats = t.cache_where >= 0 && beats_cache t key seq in
    let e = t.free in
    t.free <- t.next.(e);
    t.keys.(e) <- key;
    t.seqs.(e) <- seq;
    t.vals.(e) <- v;
    (* walk back from the tail over larger keys: [seq] is the largest so
       far, so the new entry goes after every key <= its own; the
       sentinel's key stops the walk *)
    let keys = t.keys and prev = t.prev in
    let j = ref t.slot_tail.(p) in
    while keys.(!j) > key do
      j := prev.(!j)
    done;
    link_after t p !j e;
    t.wheel_count <- t.wheel_count + 1;
    if beats then begin
      t.cache_where <- 0;
      t.cache_slot <- p
    end
  end
[@@alloc_free]

let push t ~key v =
  Float.Array.unsafe_set t.reg 0 key;
  push_reg t v
[@@alloc_free]

(* Locate the global (key, seq) minimum and cache it.  Requires a non-empty
   wheel (unchecked, like [Heap.top_key]). *)
let locate t =
  if t.cache_where < 0 then begin
    if t.wheel_count = 0 then t.cache_where <- 1
    else begin
      let p = first_occupied_from t (t.cur land slot_mask) in
      let h = t.slot_head.(p) in
      let k = t.keys.(h) in
      (* slot head vs. heap top: all other slots hold larger keys, so this
         comparison decides the global minimum *)
      let far = t.far in
      if
        far.Heap.size = 0
        || k < far.Heap.keys.(0)
        || (Float.equal k far.Heap.keys.(0) && t.seqs.(h) < far.Heap.seqs.(0))
      then begin
        t.cache_where <- 0;
        t.cache_slot <- p
      end
      else t.cache_where <- 1
    end
  end
[@@alloc_free]

let load_top_key t =
  locate t;
  Float.Array.unsafe_set t.reg 0
    (if t.cache_where = 0 then t.keys.(t.slot_head.(t.cache_slot))
     else t.far.Heap.keys.(0))
[@@alloc_free]

let top_key t =
  load_top_key t;
  Float.Array.unsafe_get t.reg 0
[@@alloc_free]

(* Advance the cursor to the absolute slot of a popped minimum, [keys.(i)]:
   every remaining entry is >= the minimum, hence lands at or after that
   slot.  The key is passed as its array and index because a float argument
   to a call that is not inlined is boxed, two words per pop. *)
let advance_to_key t (keys : float array) i =
  let s_real = keys.(i) /. width in
  (* int_of_float is undefined past the int range; a key that far out can
     only come from the heap and needs no cursor movement anyway *)
  if s_real < 4.0e18 then begin
    let s = int_of_float s_real in
    if s > t.cur then t.cur <- s
  end
[@@alloc_free]

let pop_top t =
  locate t;
  if t.cache_where = 0 then begin
    let p = t.cache_slot in
    let e = t.slot_head.(p) in
    let v = t.vals.(e) in
    advance_to_key t t.keys e;
    unlink_head t p e;
    t.wheel_count <- t.wheel_count - 1;
    t.cache_where <- -1;
    v
  end
  else begin
    advance_to_key t t.far.Heap.keys 0;
    t.cache_where <- -1;
    Heap.pop_top t.far
  end
[@@alloc_free]
