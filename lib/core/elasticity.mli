(** The elasticity detector (§3.3–3.4) — the paper's building block.

    Feed it the cross-traffic estimate ẑ sampled at a fixed interval; it
    maintains the trailing FFT window and computes the elasticity metric

    [η = |FFT_z(f_p)| / max_{f ∈ (f_p, 2·f_p)} |FFT_z(f)|]   (Eq. 3)

    Cross traffic is declared elastic when [η ≥ η_thresh] (default 2). *)

type verdict =
  | Elastic
  | Inelastic

type t

(** [create ()] builds a detector.
    @param sample_interval period between ẑ samples (default 10 ms)
    @param window FFT duration (default 5 s); the window holds
           [window / sample_interval] samples (500 by default, transformed
           with the Bluestein FFT so a 5 Hz pulse lands exactly on a bin)
    @param eta_thresh decision threshold (default 2.0)
    @param band_guard guard margin excluded at both edges of the
           comparison band, i.e. the neighbour maximum is taken over
           (f_p + g, 2·f_p − g) instead of the paper's open (f_p, 2·f_p)
           (default 0.5 Hz). The pulse fundamental and its second harmonic
           are non-stationary, so their spectral leakage spills a few bins
           past the band edges; without the guard that leakage — not cross
           traffic — dominates the neighbour maximum and deflates η.
    @param taper analysis window (default Hann: the pulse response is
           non-stationary, and with the paper's raw rectangular FFT its
           leakage floods the comparison band during transitions; the
           rectangular option remains for the ablation bench)
    @param detrend default [`Linear]: cross-traffic transitions put large
           ramps in the window whose broadband leakage otherwise swamps the
           comparison band *)
val create :
  ?sample_interval:Units.Time.t ->
  ?window:Units.Time.t ->
  ?eta_thresh:float ->
  ?band_guard:Units.Freq.t ->
  ?taper:Nimbus_dsp.Window.kind ->
  ?detrend:Nimbus_dsp.Spectrum.detrend ->
  unit ->
  t

(** [add_sample t z] appends one sample of the unit-agnostic analysis signal
    (ẑ in bits/s for the pulser's window, R(t) for a watcher's). [nan]
    samples are replaced by the previous sample so transient estimator gaps
    do not poison the window. *)
val add_sample : t -> float -> unit

(** [ready t] holds once a full window has accumulated. *)
val ready : t -> bool

(** [eta t ~freq] evaluates Eq. 3 at pulse frequency [freq]; [nan] until
    {!ready}.

    Steady state is O(1) in the window size: a sliding-DFT bank
    ({!Nimbus_dsp.Goertzel.Bank}) tracks the peak bin and the comparison
    band incrementally as samples arrive.  The first evaluation at a given
    frequency — and any evaluation after the frequency changes, i.e. a mode
    transition — answers from the full Plan-FFT path and re-tunes the bank.
    The two paths agree to floating-point rounding (QCheck-gated, see
    {!eta_reference}). *)
val eta : t -> freq:Units.Freq.t -> float

(** [eta_reference t ~freq] is Eq. 3 evaluated via the full Plan-FFT path,
    bypassing the streaming bank — the agreement oracle for tests and
    diagnostics. *)
val eta_reference : t -> freq:Units.Freq.t -> float

(** [classify t ~freq] applies the threshold rule; [None] until {!ready}. *)
val classify : t -> freq:Units.Freq.t -> verdict option

(** [spectrum t] is the current amplitude spectrum of the window (mean
    removed), for diagnostics and the Fig. 5 reproduction; [None] until
    {!ready}. *)
val spectrum : t -> Nimbus_dsp.Spectrum.t option

(** [peak_amplitude t ~freq] is the spectrum amplitude at [freq]; [nan]
    until {!ready}.  When {!eta} last ran at [freq] it streams from η's
    bank (its peak slot, equal to the FFT's to rounding) instead of
    computing a spectrum. *)
val peak_amplitude : t -> freq:Units.Freq.t -> float

(** {2 Watcher bank}

    A multi-flow watcher (§6) searches its receive-rate window for the
    pulser's tone at either mode frequency, comparing each against a
    reference band above both.  {!watch} sets up that search; its readouts
    stream from a second sliding-DFT bank, as {!eta} does, so a steady
    readout is O(1) in the window size and computes no spectrum.  Each
    agrees with the same reading of {!spectrum} to rounding. *)

(** [watch t ~tones ~lo ~hi] makes [t] track, for each of [tones], the bin
    nearest it (as {!Nimbus_dsp.Spectrum.amplitude_at} picks it), and the
    bins strictly inside the reference band [(lo, hi)] (as
    {!Nimbus_dsp.Spectrum.band_max} picks them).  Cheap: the bank is built,
    and loaded from the window, on the first readout once {!ready}. *)
val watch :
  t ->
  tones:Units.Freq.t array ->
  lo:Units.Freq.t ->
  hi:Units.Freq.t ->
  unit

(** [tone_amplitude t i] is the spectrum amplitude at [tones.(i)]; [nan]
    until {!ready}.
    @raise Invalid_argument without a {!watch}. *)
val tone_amplitude : t -> int -> float

(** [tone_oscillation t i] is the time-domain amplitude of a sinusoid at
    [tones.(i)]: {!tone_amplitude} with the taper's coherent gain inverted.
    Watchers compare it against a fraction of µ to decide whether a pulser
    is genuinely audible; [nan] until {!ready}.
    @raise Invalid_argument without a {!watch}. *)
val tone_oscillation : t -> int -> float

(** [watch_reference t] is the largest amplitude in the reference band, or
    [0.] when no bin lies inside it; [nan] until {!ready}.
    @raise Invalid_argument without a {!watch}. *)
val watch_reference : t -> float

(** [eta_thresh t]. *)
val eta_thresh : t -> float

(** [sample_rate t]. *)
val sample_rate : t -> Units.Freq.t

(** [samples t] is the current window contents in chronological order. *)
val samples : t -> float array

(** [mean t] is the mean of the current window contents ([0.] when empty),
    computed without allocating. *)
val mean : t -> float
