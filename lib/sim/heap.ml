(* Entries live in three parallel arrays instead of an array of
   {key; seq; value} records: [keys] is a flat float array (unboxed storage),
   so a push allocates nothing — the old representation boxed one entry
   record plus one float per push, which at simulator packet rates dominated
   the minor-word budget of [Engine].  [seqs] carries the FIFO tie-break:
   (key, seq) is a total order, which is what makes event delivery — and
   therefore traces — deterministic. *)
type 'a t = {
  mutable keys : float array;
  mutable seqs : int array;
  mutable vals : 'a array;
  mutable size : int;
}

let create () = { keys = [||]; seqs = [||]; vals = [||]; size = 0 }

let size h = h.size

let is_empty h = h.size = 0

(* strict (key, seq) lexicographic order between slots [i] and [j] *)
let less h i j =
  h.keys.(i) < h.keys.(j)
  || (Float.equal h.keys.(i) h.keys.(j) && h.seqs.(i) < h.seqs.(j))
[@@alloc_free]

(* Doubling growth, filling the fresh arrays with the entry being pushed so
   no dummy element is ever needed.  Cold: runs O(log n) times total. *)
let grow h ~key ~seq v =
  let ncap = max 16 (2 * Array.length h.keys) in
  let keys = Array.make ncap key in
  let seqs = Array.make ncap seq in
  let vals = Array.make ncap v in
  Array.blit h.keys 0 keys 0 h.size;
  Array.blit h.seqs 0 seqs 0 h.size;
  Array.blit h.vals 0 vals 0 h.size;
  h.keys <- keys;
  h.seqs <- seqs;
  h.vals <- vals

(* The key comes as an array and an index, not as a float argument: a float
   passed to a call across modules is boxed, two words per push. *)
let push_seq h keys i ~seq v =
  let key = Float.Array.get keys i in
  if h.size = Array.length h.keys then
    (grow h ~key ~seq v [@alloc_ok "amortized capacity doubling"]);
  (* sift up *)
  let i = ref h.size in
  h.size <- h.size + 1;
  h.keys.(!i) <- key;
  h.seqs.(!i) <- seq;
  h.vals.(!i) <- v;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if
      key < h.keys.(parent)
      || (Float.equal key h.keys.(parent) && seq < h.seqs.(parent))
    then begin
      h.keys.(!i) <- h.keys.(parent);
      h.seqs.(!i) <- h.seqs.(parent);
      h.vals.(!i) <- h.vals.(parent);
      h.keys.(parent) <- key;
      h.seqs.(parent) <- seq;
      h.vals.(parent) <- v;
      i := parent
    end
    else continue := false
  done
[@@alloc_free]

(* top_key/pop_top are the raw primitives: no option or tuple wrapping.
   Both require a non-empty heap (unchecked: callers test [is_empty]
   first). *)
let top_key h = h.keys.(0) [@@alloc_free]

let swap h i j =
  let k = h.keys.(i) and s = h.seqs.(i) and v = h.vals.(i) in
  h.keys.(i) <- h.keys.(j);
  h.seqs.(i) <- h.seqs.(j);
  h.vals.(i) <- h.vals.(j);
  h.keys.(j) <- k;
  h.seqs.(j) <- s;
  h.vals.(j) <- v
[@@alloc_free]

let pop_top h =
  let top = h.vals.(0) in
  h.size <- h.size - 1;
  if h.size > 0 then begin
    h.keys.(0) <- h.keys.(h.size);
    h.seqs.(0) <- h.seqs.(h.size);
    h.vals.(0) <- h.vals.(h.size);
    (* sift down *)
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < h.size && less h l !smallest then smallest := l;
      if r < h.size && less h r !smallest then smallest := r;
      if !smallest <> !i then begin
        swap h !i !smallest;
        i := !smallest
      end
      else continue := false
    done
  end;
  top
[@@alloc_free]
