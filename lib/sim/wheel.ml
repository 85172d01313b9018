(* Calendar-queue event core: a 1024-slot timer wheel for near-future events
   with a binary-heap overflow for far timers.

   Push and pop of a near-future event (within [nslots * width] of the
   cursor, which covers packet serialisation, pacing, and RTT-scale timers
   at the 64 µs slot width) cost O(1) in the common case instead of
   the heap's O(log n), and nothing is boxed on the way in: every slot
   stores its entries in parallel arrays (flat float keys / int seqs /
   values), exactly like {!Heap} after the unboxed-key rework.

   Sorted slots: a slot's live entries sit in [head, len) in (key, seq)
   order, so its minimum is always at [head] and a pop just advances it.  A
   push inserts from the tail.  Its seq is the largest handed out so far, so
   it goes after every entry with a key <= its own: in-order arrivals and
   same-instant bursts (hundreds of flow ticks landing in one slot) append
   in O(1), and only an entry that undercuts later keys of its slot shifts
   them.  A drained slot resets to [head = len = 0]; a full slot is
   compacted in place when at least half of it is dead, and doubled
   otherwise.

   Determinism: entries carry sequence numbers from one shared counter, and
   the pop rule is the global lexicographic (key, seq) minimum across both
   structures — the slot head against the heap top — so the pop order is
   *identical* to a single FIFO-tie-breaking heap's, under any push
   pattern.

   Occupancy is tracked in a two-level bitmap (32 words x 32 bits, one
   summary word), so finding the next non-empty slot is a handful of mask
   and count-trailing-zero steps, never a 1024-slot walk.

   Keys must be finite and non-negative (the engine validates before
   pushing).  All wheel entries lie in absolute slots [cur, cur + nslots):
   physical slot p = abs land (nslots - 1) therefore holds entries of exactly
   one absolute slot, and the wrapped bitmap scan from the cursor's physical
   slot visits slots in absolute order.  The cursor only advances to the
   slot of a popped global minimum, which every remaining entry is >= by
   construction, so the invariant is maintained without migration sweeps. *)

let nslots = 1024
let slot_mask = nslots - 1
let word_bits = 32
let nwords = nslots / word_bits (* 32: level-1 summary fits one int *)

(* slot width, seconds *)
let width = 64e-6

type 'a t = {
  slot_keys : float array array;
  slot_seqs : int array array;
  slot_vals : 'a array array;
  slot_head : int array; (* first live entry: the slot's minimum *)
  slot_len : int array; (* one past the last live entry *)
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
    slot_keys = Array.make nslots [||];
    slot_seqs = Array.make nslots [||];
    slot_vals = Array.make nslots [||];
    slot_head = Array.make nslots 0;
    slot_len = Array.make nslots 0;
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

(* Room for one more entry at the tail of a full slot [p]: slide the live
   range [head, len) down to 0 when at least half the slot is dead,
   otherwise double the capacity (fresh arrays filled with the entry being
   pushed, so no dummy element is ever needed).  Either way the live range
   then starts at 0. *)
let make_room t p ~key ~seq v =
  let head = t.slot_head.(p) and len = t.slot_len.(p) in
  let cap = Array.length t.slot_keys.(p) in
  let live = len - head in
  if head > 0 && 2 * head >= cap then begin
    Array.blit t.slot_keys.(p) head t.slot_keys.(p) 0 live;
    Array.blit t.slot_seqs.(p) head t.slot_seqs.(p) 0 live;
    Array.blit t.slot_vals.(p) head t.slot_vals.(p) 0 live
  end
  else begin
    let ncap = max 4 (2 * cap) in
    let keys = Array.make ncap key in
    let seqs = Array.make ncap seq in
    let vals = Array.make ncap v in
    Array.blit t.slot_keys.(p) head keys 0 live;
    Array.blit t.slot_seqs.(p) head seqs 0 live;
    Array.blit t.slot_vals.(p) head vals 0 live;
    t.slot_keys.(p) <- keys;
    t.slot_seqs.(p) <- seqs;
    t.slot_vals.(p) <- vals
  end;
  t.slot_head.(p) <- 0;
  t.slot_len.(p) <- live

(* Is (key, seq) strictly before the cached global minimum?  Inlined: [key]
   is an unboxed local of [push_reg], and a call would box it. *)
let[@inline] beats_cache t key seq =
  if t.cache_where = 0 then begin
    let p = t.cache_slot in
    let h = t.slot_head.(p) in
    let ck = t.slot_keys.(p).(h) in
    key < ck || (Float.equal key ck && seq < t.slot_seqs.(p).(h))
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
    if t.slot_len.(p) = Array.length t.slot_keys.(p) then
      (make_room t p ~key ~seq v
      [@alloc_ok "amortized per-slot capacity doubling"]);
    (* decided before the insert can shift the cached slot's head *)
    let beats = t.cache_where >= 0 && beats_cache t key seq in
    let keys = t.slot_keys.(p)
    and seqs = t.slot_seqs.(p)
    and vals = t.slot_vals.(p) in
    let head = t.slot_head.(p) and len = t.slot_len.(p) in
    (* sorted insert from the tail: [seq] is the largest so far, so the new
       entry goes after every key <= its own and only larger keys shift *)
    let i = ref len in
    while !i > head && keys.(!i - 1) > key do
      keys.(!i) <- keys.(!i - 1);
      seqs.(!i) <- seqs.(!i - 1);
      vals.(!i) <- vals.(!i - 1);
      decr i
    done;
    keys.(!i) <- key;
    seqs.(!i) <- seq;
    vals.(!i) <- v;
    t.slot_len.(p) <- len + 1;
    if len = head then mark_slot t p;
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
      let k = t.slot_keys.(p).(h) in
      (* slot head vs. heap top: all other slots hold larger keys, so this
         comparison decides the global minimum *)
      let far = t.far in
      if
        far.Heap.size = 0
        || k < far.Heap.keys.(0)
        || (Float.equal k far.Heap.keys.(0)
           && t.slot_seqs.(p).(h) < far.Heap.seqs.(0))
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
    (if t.cache_where = 0 then
       t.slot_keys.(t.cache_slot).(t.slot_head.(t.cache_slot))
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
    let h = t.slot_head.(p) and last = t.slot_len.(p) - 1 in
    let vals = t.slot_vals.(p) in
    let v = vals.(h) in
    advance_to_key t t.slot_keys.(p) h;
    (* drop the popped payload (and whatever it keeps alive) by aliasing a
       live entry, so a drained slot retains at most one value *)
    vals.(h) <- vals.(last);
    if h = last then begin
      t.slot_head.(p) <- 0;
      t.slot_len.(p) <- 0;
      unmark_slot t p
    end
    else t.slot_head.(p) <- h + 1;
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
