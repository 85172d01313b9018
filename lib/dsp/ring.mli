(** Fixed-capacity ring buffer of floats.

    Holds the sliding time series the detector transforms: the cross-traffic
    estimate ẑ sampled every 10 ms over the trailing FFT window. *)

type t

(** [create n] holds the most recent [n] samples.  The [n]-sample buffer
    is allocated at the first {!push}, not here: a buffer over 256 samples
    goes straight to the major heap, and a ring made while a flow is set
    up then allocates only a few words there.  Every function accepts a
    ring that has no buffer yet (it reads as empty); {!clear} keeps the
    buffer.
    @raise Invalid_argument if [n <= 0]. *)
val create : int -> t

(** [capacity t]. *)
val capacity : t -> int

(** [count t] is the number of samples currently stored ([<= capacity]). *)
val count : t -> int

(** [is_full t] holds when [count t = capacity t]. *)
val is_full : t -> bool

(** [push t x] appends [x], evicting the oldest sample when full. *)
val push : t -> float -> unit

(** [push_at t src i] is [push t src.(i)]: the same sample, without the box
    a float passed across a module boundary takes. *)
val push_at : t -> Float.Array.t -> int -> unit

(** [to_array t] is the stored samples in chronological order. *)
val to_array : t -> float array

(** [blit_to t dst] copies the stored samples in chronological order into
    [dst.(0 .. count t - 1)] without allocating.
    @raise Invalid_argument if [dst] is shorter than [count t]. *)
val blit_to : t -> float array -> unit

(** [sum t] is the sum of the stored samples in chronological order, without
    allocating. *)
val sum : t -> float

(** [sum_to t dst i] writes [sum t] into [dst.(i)]: the same bits, without
    the box a float returned across a module boundary takes. *)
val sum_to : t -> Float.Array.t -> int -> unit

(** [last t] is the most recent sample. @raise Invalid_argument when empty. *)
val last : t -> float

(** [nth_from_end t k] is the sample pushed [k] steps ago ([k = 0] is the most
    recent). @raise Invalid_argument when out of range. *)
val nth_from_end : t -> int -> float

(** [clear t] discards all samples. *)
val clear : t -> unit

(** [fold t ~init ~f] folds over stored samples in chronological order. *)
val fold : t -> init:'a -> f:('a -> float -> 'a) -> 'a
