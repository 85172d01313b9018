(** Calendar-queue event core: a 1024-slot timer wheel for near-future
    events with a binary-heap ({!Heap}) overflow for far timers.

    Scheduling a near-future event — within [1024 x width] of the cursor,
    which at the 64 µs slot width is a ~65 ms horizon covering
    packet serialisation times, pacing ticks, and RTT-scale timers — is
    O(1) when it arrives in key order or shares its key with earlier
    events (a same-instant burst), and popping is O(1): each slot is kept
    sorted, so its minimum is at its head.  A push that undercuts later
    keys of its slot shifts only those.  Events beyond the horizon spill
    into the heap and migrate implicitly: by the time they are due, the
    cursor has advanced and they pop straight from the heap.

    Pop order is the global lexicographic (key, sequence) minimum across
    the slots and the heap, with sequence numbers drawn from one shared
    counter at push time — exactly the order a single FIFO-tie-breaking
    {!Heap} would produce, so switching {!Engine} between the two cannot
    change a trace byte.

    Keys must be finite and non-negative ({!Engine} validates its
    timestamps before scheduling). *)

type 'a t

(** [create ()] is an empty queue with 64 µs slots. *)
val create : unit -> 'a t

(** [size t] is the number of pending events (slots + overflow heap). *)
val size : 'a t -> int

(** [is_empty t]. *)
val is_empty : 'a t -> bool

(** [push t ~key v] schedules [v] at time [key], assigning the next
    sequence number (FIFO among equal keys, across both structures). *)
val push : 'a t -> key:float -> 'a -> unit

(** [top_key t] is the minimum key.  The queue must be non-empty
    (unchecked, like {!Heap.top_key}).  Called from another module it
    returns a boxed float; a hot caller uses {!load_top_key}. *)
val top_key : 'a t -> float

(** [key_reg t] is the queue's one-slot key register, through which
    {!push_reg} and {!load_top_key} pass keys unboxed: a float argument or
    result of a call across modules is boxed, two words per event. *)
val key_reg : 'a t -> Float.Array.t

(** [push_reg t v] is [push t ~key v] with [key] read from slot 0 of
    {!key_reg}. *)
val push_reg : 'a t -> 'a -> unit

(** [load_top_key t] writes the minimum key into slot 0 of {!key_reg}.
    The queue must be non-empty (unchecked). *)
val load_top_key : 'a t -> unit

(** [pop_top t] removes and returns the value with the minimum
    (key, sequence).  The queue must be non-empty (unchecked). *)
val pop_top : 'a t -> 'a
