(** Binary min-heap ordered by a float key, then by a caller-supplied
    sequence number among equal keys.

    Backs the far-timer side of the event queue ({!Wheel} holds the
    near-future side): keys are simulated timestamps, and the sequence
    number keeps same-instant events in the order they were scheduled,
    which makes simulations deterministic.

    Entries are stored in parallel arrays — a flat (unboxed) float array of
    keys, an int array of sequence numbers, and a value array — so a push
    allocates nothing beyond the amortized capacity doublings.

    The record is [private] so that {!Wheel} can read the minimum entry,
    [keys.(0)] and [seqs.(0)], in place: a float returned by a call across
    modules is boxed, and the wheel compares against the heap top on every
    pop while a far timer is pending. *)

type 'a t = private {
  mutable keys : float array;  (** heap-ordered; [keys.(0)] is the minimum *)
  mutable seqs : int array;  (** [seqs.(i)] goes with [keys.(i)] *)
  mutable vals : 'a array;
  mutable size : int;  (** live entries, at indices [0 .. size - 1] *)
}

(** [create ()] is an empty heap. *)
val create : unit -> 'a t

(** [size h]. *)
val size : 'a t -> int

(** [is_empty h]. *)
val is_empty : 'a t -> bool

(** [push_seq h keys i ~seq v] inserts [v] with priority [keys.(i)] and
    the caller's sequence number [seq], which orders entries of equal key
    (lowest first).  {!Wheel} numbers its pushes itself, to keep one global
    FIFO order across the calendar slots and the overflow heap, and hands
    over its key register: a float argument to a call across modules is
    boxed, so a key already in a float array goes over as the array and an
    index, and the push allocates nothing. *)
val push_seq : 'a t -> Float.Array.t -> int -> seq:int -> 'a -> unit

(** [top_key h] is the minimum key.  The heap must be non-empty (unchecked).
    Called from another module it returns a boxed float, two minor words per
    call; a hot path reads [h.keys.(0)] instead. *)
val top_key : 'a t -> float

(** [pop_top h] removes and returns the minimum-key value.  The heap must be
    non-empty (unchecked). *)
val pop_top : 'a t -> 'a
