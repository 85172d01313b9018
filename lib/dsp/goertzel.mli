(** Goertzel's algorithm: the DFT magnitude of one frequency bin in O(n) time
    with O(1) state, and {!Bank}, its streaming form: a fixed set of DFT bins
    tracked in O(1) per sample.  The elasticity detector, the watcher's
    pulser search and the pulse keep-alive probes all read banks. *)

(** [power xs ~sample_rate ~freq] is [|X(f)|²] of the real signal [xs]
    evaluated at the (possibly non-integer) bin corresponding to [freq].
    @raise Invalid_argument if [sample_rate <= 0.] or [xs] is empty. *)
val power : float array -> sample_rate:Units.Freq.t -> freq:float -> float

(** [magnitude xs ~sample_rate ~freq] is [sqrt (power xs ~sample_rate ~freq)],
    directly comparable with the amplitudes of {!Spectrum.analyze} (no
    detrend, rectangular window) when [freq] is an exact bin. *)
val magnitude :
  float array -> sample_rate:Units.Freq.t -> freq:float -> float

(** A bank of sliding-DFT recurrences tracking a fixed set of DFT bins of
    the {e windowed, detrended} signal — the amplitudes agree with
    {!Spectrum.analyze} over the same window, taper (rectangular or Hann)
    and detrend mode ([`None] or [`Linear]) to floating-point rounding (periodic in-place resynchronisation bounds
    recurrence drift).  A push is O(bins) and an amplitude readout is O(1)
    in the window size: this is what makes the elasticity detector's
    steady-state tick O(1) instead of one FFT per tick. *)
module Bank : sig
  type t

  (** [create ~window ~taper ~detrend ~bins ()] tracks the DFT bins [bins]
      (indices into the length-[window] DFT, each in [[0, window/2]]) of
      the last [window] samples, tapered and detrended exactly as
      {!Spectrum.analyze} with the same parameters.  Cost per push:
      [2*order + 1] complex recurrences per bin (order 0 rectangular,
      1 Hann).
      @raise Invalid_argument if [window <= 0] or a bin is out of range. *)
  val create :
    window:int ->
    taper:Window.kind ->
    detrend:[ `None | `Linear ] ->
    bins:int array ->
    unit ->
    t

  (** [push t x] slides the window one sample forward. Allocation-free. *)
  val push : t -> float -> unit

  (** [push_at t src i] is [push t src.(i)], without the box a float passed
      across a module boundary takes. *)
  val push_at : t -> Float.Array.t -> int -> unit

  (** [load t xs] resets the window to [xs] (chronological, length exactly
      [window]) and recomputes all state — used to (re)tune a detector from
      its ring after a pulse-frequency change. *)
  val load : t -> float array -> unit

  (** [filled t] holds once [window] samples are present (pushes before
      that analyse an implicitly zero-padded window). *)
  val filled : t -> bool

  (** [nbins t] is the number of tracked bins. *)
  val nbins : t -> int

  (** [bin t slot] is the DFT bin index tracked at [slot]
      (position in [create]'s [bins] array). *)
  val bin : t -> int -> int

  (** [amplitude t slot] is the current [|X_k|] of the bin at [slot],
      matching [Spectrum.analyze]'s amplitude for the same bin up to
      rounding. Allocation-free. *)
  val amplitude : t -> int -> float

  (** [band_max t ~first ~last] is the largest {!amplitude} over slots
      [first .. last], or [0.] when that range is empty — the bank's
      {!Spectrum.band_max} when those slots hold a band's bins.  One call
      reads the whole range: each call returning a float across a module
      boundary costs a boxed result, so a per-slot {!amplitude} loop costs
      2 words per slot and this costs 2 in all. *)
  val band_max : t -> first:int -> last:int -> float

  (** [amplitude_to t slot dst i] writes [amplitude t slot] into [dst.(i)]
      and [band_max_to t ~first ~last dst i] writes
      [band_max t ~first ~last] there: the same bits, with no boxed result,
      for a caller that reads several levels per tick. *)
  val amplitude_to : t -> int -> Float.Array.t -> int -> unit

  val band_max_to : t -> first:int -> last:int -> Float.Array.t -> int -> unit

  (** [peak_ratio t ~slot ~first ~last] is
      [amplitude t slot /. band_max t ~first ~last] in one call: Eq. 3's η
      when [slot] holds the pulse bin and the range its comparison band.
      IEEE division makes it [infinity] for a silent band under a nonzero
      peak and [nan] when both are silent. *)
  val peak_ratio : t -> slot:int -> first:int -> last:int -> float
end
