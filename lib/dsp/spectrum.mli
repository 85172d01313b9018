(** Single-sided amplitude spectra of real, uniformly sampled signals, with
    frequency-indexed access.

    The elasticity metric (Eq. 3 of the paper) is a ratio of values read off
    such a spectrum: the amplitude at the pulse frequency over the largest
    amplitude strictly inside the band (f_p, 2·f_p). *)

type t = {
  amplitudes : float array; (* |X(k)| for k in 0 .. n/2 *)
  sample_rate : float;      (* Hz *)
  n : int;                  (* original signal length *)
}

type detrend =
  [ `None
  | `Mean    (** subtract the mean (kills DC leakage) *)
  | `Linear  (** subtract the least-squares line — also removes ramps, the
                 dominant contamination when the signal is a cross-traffic
                 rate mid-transition *)
  ]

(** Reusable analysis state for a fixed signal length.

    A [state] preallocates everything an analysis needs — the window
    coefficients, the complex FFT buffer, the {!Fft.Plan.t}, and the result
    record with its amplitude array — so that {!analyze_into} runs without
    heap allocation.  A state owns mutable scratch: do not share one
    between domains, and note that the [t] returned by {!analyze_into} aliases
    the state's amplitude array (it is overwritten by the next call). *)
type state

(** [create_state ?window ?detrend ~n ~sample_rate ()] builds reusable state
    for signals of exactly [n] samples.  [window] defaults to rectangular,
    [detrend] to [`Mean].
    @raise Invalid_argument if [n <= 0] or the rate is non-positive. *)
val create_state :
  ?window:Window.kind ->
  ?detrend:detrend ->
  n:int ->
  sample_rate:Units.Freq.t ->
  unit ->
  state

(** [state_size st] is the signal length [st] was built for. *)
val state_size : state -> int

(** [analyze_into st xs] computes the spectrum of [xs] into [st]'s reused
    buffers.  The returned [t] is valid until the next [analyze_into] on the
    same state.
    @raise Invalid_argument if [Array.length xs <> state_size st]. *)
val analyze_into : state -> float array -> t

(** [bin_width s] is the frequency spacing between adjacent bins, in Hz. *)
val bin_width : t -> float

(** [bin_of_freq s f] is the index of the bin nearest to [f] Hz, clamped to
    the valid range. *)
val bin_of_freq : t -> float -> int

(** [freq_of_bin s k] is the centre frequency of bin [k]. *)
val freq_of_bin : t -> int -> float

(** [amplitude_at s f] is the amplitude of the bin nearest [f]. *)
val amplitude_at : t -> float -> float

(** [band_max s ~lo ~hi] is the largest amplitude over bins whose centre
    frequency lies strictly inside the open interval [(lo, hi)]; [0.] if the
    interval contains no bin. *)
val band_max : t -> lo:float -> hi:float -> float

(** [dominant s ~above] is [(freq, amplitude)] of the largest bin with centre
    frequency strictly greater than [above] (use [~above:0.] to skip DC). *)
val dominant : t -> above:float -> float * float
