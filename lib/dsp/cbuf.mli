(** Complex-valued buffers stored as parallel [re]/[im] float arrays.

    This representation avoids boxing each complex number and lets the FFT
    kernels run in place over flat arrays. *)

type t = {
  re : float array;
  im : float array;
}

(** [create n] is a zeroed buffer of length [n]. *)
val create : int -> t

(** [length b] is the number of complex slots in [b]. *)
val length : t -> int

(** [of_real xs] copies [xs] into the real parts, zeroing imaginary parts. *)
val of_real : float array -> t

(** [copy b] is a deep copy of [b]. *)
val copy : t -> t

(** [get b i] is the [i]-th complex value as a [(re, im)] pair. *)
val get : t -> int -> float * float

(** [set b i re im] stores [re + im·i] at slot [i]. *)
val set : t -> int -> float -> float -> unit

(** [mul b i re im] multiplies slot [i] in place by [re + im·i]. *)
val mul : t -> int -> float -> float -> unit

(** [magnitude b i] is [|b.(i)|]. *)
val magnitude : t -> int -> float

(** [scale b k] multiplies every slot by the real scalar [k]. *)
val scale : t -> float -> unit

(** [blit ~src ~src_pos ~dst ~dst_pos ~len] copies complex slots. *)
val blit : src:t -> src_pos:int -> dst:t -> dst_pos:int -> len:int -> unit
