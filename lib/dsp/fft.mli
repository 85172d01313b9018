(** Fast Fourier transforms.

    {!Plan} holds the two kernels, both table-driven and allocation-free:
    - an iterative, in-place radix-2 Cooley–Tukey transform for power-of-two
      lengths;
    - a Bluestein (chirp-z) transform for arbitrary lengths, built on the
      radix-2 kernel — the elasticity detector uses 500-point windows so the
      5 Hz pulse frequency lands exactly on a bin.
    {!dft}, the naive O(n²) transform, is the test oracle.  Real signals go
    through {!Spectrum.analyze}, which builds a plan per call.

    Transforms are forward only, with the usual engineering convention
    [X(k) = Σ x(n)·exp(−2πi·kn/N)]. *)

(** [is_power_of_two n] holds iff [n] is a positive power of two. *)
val is_power_of_two : int -> bool

(** [max_power_of_two] is the largest power of two representable as an
    [int] ([max_int/2 + 1]). *)
val max_power_of_two : int

(** [next_power_of_two n] is the least power of two [>= max n 1].
    @raise Invalid_argument if [n > max_power_of_two] (doubling past it
    would overflow and never terminate). *)
val next_power_of_two : int -> int

(** Precomputed transform plans.

    A plan caches everything size-dependent the kernels otherwise recompute
    per call — the bit-reversal permutation, every stage's twiddle factors,
    and (for non-power-of-two sizes) the Bluestein chirp table, the FFT of
    the chirp filter, and the padded convolution scratch buffer — so that
    {!Plan.execute} performs no allocation and no trigonometry.

    A plan owns mutable scratch state: one plan must not be executed from
    two domains concurrently. *)
module Plan : sig
  type t

  (** [create n] builds a plan for transforms of [n] complex points.
      @raise Invalid_argument if [n <= 0]. *)
  val create : int -> t

  (** [size t] is the transform length the plan was built for. *)
  val size : t -> int

  (** [execute t b] transforms [b] in place, allocation-free.
      @raise Invalid_argument if [Cbuf.length b <> size t]. *)
  val execute : t -> Cbuf.t -> unit
end

(** [dft b] is the quadratic-time reference transform. *)
val dft : Cbuf.t -> Cbuf.t
