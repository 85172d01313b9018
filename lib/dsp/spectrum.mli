(** Single-sided amplitude spectra of real, uniformly sampled signals, with
    frequency-indexed access.

    The elasticity metric (Eq. 3 of the paper) is a ratio of values read off
    such a spectrum: the amplitude at the pulse frequency over the largest
    amplitude strictly inside the band (f_p, 2·f_p).  Every caller names its
    detrend: the detector and Fig. 5 subtract the least-squares line, and
    the undetrended spectrum is the oracle for the pulse keep-alive
    probes' banks. *)

type t = {
  amplitudes : float array; (* |X(k)| for k in 0 .. n/2 *)
  sample_rate : float;      (* Hz *)
  n : int;                  (* original signal length *)
}

type detrend =
  [ `None    (** the raw signal: the oracle for the undetrended probe banks *)
  | `Linear  (** subtract the least-squares line — removes DC and ramps, the
                 dominant contamination when the signal is a cross-traffic
                 rate mid-transition *)
  ]

(** [analyze ?window ~detrend ~sample_rate xs] is the spectrum of [xs]:
    detrended, tapered by [window], transformed through a fresh
    {!Fft.Plan.t}, and read as [|X(k)|] for [k] in [0 .. n/2].  [window]
    defaults to rectangular.  Each call builds its own
    window table, buffer and plan, so the result is fresh and nothing is
    shared between calls or domains.  Steady readouts of a sliding window
    stream from a {!Goertzel.Bank} instead.
    @raise Invalid_argument if [xs] is empty or the rate is non-positive. *)
val analyze :
  ?window:Window.kind ->
  detrend:detrend ->
  sample_rate:Units.Freq.t ->
  float array ->
  t

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
