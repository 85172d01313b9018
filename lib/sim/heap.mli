(** Binary min-heap ordered by a float key, then by a caller-supplied
    sequence number among equal keys.

    Backs the far-timer side of the event queue ({!Wheel} holds the
    near-future side): keys are simulated timestamps, and the sequence
    number keeps same-instant events in the order they were scheduled,
    which makes simulations deterministic.

    Entries are stored in parallel arrays — a flat (unboxed) float array of
    keys, an int array of sequence numbers, and a value array — so a push
    allocates nothing beyond the amortized capacity doublings. *)

type 'a t

(** [create ()] is an empty heap. *)
val create : unit -> 'a t

(** [size h]. *)
val size : 'a t -> int

(** [is_empty h]. *)
val is_empty : 'a t -> bool

(** [push_seq h ~key ~seq v] inserts [v] with priority [key] and the
    caller's sequence number [seq], which orders entries of equal key
    (lowest first).  {!Wheel} numbers its pushes itself, to keep one global
    FIFO order across the calendar slots and the overflow heap. *)
val push_seq : 'a t -> key:float -> seq:int -> 'a -> unit

(** [top_key h] is the minimum key.  The heap must be non-empty (unchecked);
    it allocates nothing, which is what the engine drain loop needs. *)
val top_key : 'a t -> float

(** [top_seq h] is the sequence number of the minimum entry (non-empty,
    unchecked) — {!Wheel} compares it against slot entries to order
    same-instant events across the two structures. *)
val top_seq : 'a t -> int

(** [pop_top h] removes and returns the minimum-key value.  The heap must be
    non-empty (unchecked). *)
val pop_top : 'a t -> 'a
