(** The elasticity detector (§3.3–3.4) — the paper's building block.

    Feed it the cross-traffic estimate ẑ sampled at a fixed interval; it
    maintains the trailing FFT window and computes the elasticity metric

    [η = |FFT_z(f_p)| / max_{f ∈ (f_p, 2·f_p)} |FFT_z(f)|]   (Eq. 3)

    Cross traffic is declared elastic when [η ≥ {!eta_thresh}] (2). *)

type verdict =
  | Elastic
  | Inelastic

type t

(** The detector's fixed operating point (Eq. 3): one ẑ sample every
    {!sample_interval} (10 ms), and cross traffic is elastic when
    [η ≥ {!eta_thresh}] (2).  The comparison band is guarded by 0.5 Hz at
    both edges, i.e. the neighbour maximum is taken over
    (f_p + 0.5 Hz, 2·f_p − 0.5 Hz) instead of the paper's open
    (f_p, 2·f_p): the pulse fundamental and its second harmonic are
    non-stationary, so their leakage spills a few bins past the band edges
    and would otherwise dominate the neighbour maximum.  The window is
    linearly detrended before the transform, because cross-traffic
    transitions put large ramps in it whose broadband leakage otherwise
    swamps the comparison band. *)

(** [sample_interval] is 10 ms.  A caller feeding one sample per flow tick
    must tick at this period, or every frequency is mis-scaled. *)
val sample_interval : Units.Time.t

(** [eta_thresh] is 2. *)
val eta_thresh : float

(** [create ()] builds a detector.
    @param window FFT duration (default 5 s); the window holds
           [window / sample_interval] samples (500 by default, transformed
           with the Bluestein FFT so a 5 Hz pulse lands exactly on a bin)
    @param taper analysis window (default Hann: the pulse response is
           non-stationary, and with the paper's raw rectangular FFT its
           leakage floods the comparison band during transitions; the
           rectangular option remains for the ablation bench)
    @raise Invalid_argument if [window] is not longer than
           {!sample_interval} *)
val create :
  ?window:Units.Time.t -> ?taper:Nimbus_dsp.Window.kind -> unit -> t

(** [add_sample t z] appends one sample of the unit-agnostic analysis signal
    (ẑ in bits/s for the pulser's window, R(t) for a watcher's). [nan]
    samples are replaced by the previous sample so transient estimator gaps
    do not poison the window. *)
val add_sample : t -> float -> unit

(** [add_sample_at t src i] is [add_sample t src.(i)], without the box a
    float passed across a module boundary takes. *)
val add_sample_at : t -> Float.Array.t -> int -> unit

(** [ready t] holds once a full window has accumulated. *)
val ready : t -> bool

(** [eta t ~freq] evaluates Eq. 3 at pulse frequency [freq]; [nan] until
    {!ready}.

    Steady state is O(1) in the window size: a sliding-DFT bank
    ({!Nimbus_dsp.Goertzel.Bank}) tracks the peak bin and the comparison
    band incrementally as samples arrive.  The first evaluation at a given
    frequency — and any evaluation after the frequency changes, i.e. a mode
    transition — answers from a one-shot FFT
    ({!Nimbus_dsp.Spectrum.analyze}) and re-tunes the bank.
    The two paths agree to floating-point rounding (QCheck-gated, see
    {!eta_reference}). *)
val eta : t -> freq:Units.Freq.t -> float

(** [eta_reference t ~freq] is Eq. 3 evaluated via the one-shot FFT,
    bypassing the streaming bank — the agreement oracle for tests and
    diagnostics. *)
val eta_reference : t -> freq:Units.Freq.t -> float

(** [classify t ~freq] applies the threshold rule; [None] until {!ready}. *)
val classify : t -> freq:Units.Freq.t -> verdict option

(** [spectrum t] is the amplitude spectrum of the current window, tapered
    and detrended as the detector's, for diagnostics and the Fig. 5
    reproduction; [None] until {!ready}.  Each call computes a fresh
    spectrum; the detector keeps no FFT state. *)
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

(** [watch_levels t dst] is [false] until {!ready}.  Then, for the [k]
    watched tones, it writes [tone_amplitude t i] into [dst.(i)] and
    [tone_oscillation t i] into [dst.(k + i)], and [watch_reference t] into
    [dst.(2k)], and is [true]: the same bits as the three readers, with no
    boxed float per level.
    @raise Invalid_argument without a {!watch}. *)
val watch_levels : t -> Float.Array.t -> bool

(** [mean_to t dst i] writes the mean of the current window contents ([0.]
    when empty) into [dst.(i)], without allocating: a float returned
    across a module boundary would be boxed. *)
val mean_to : t -> Float.Array.t -> int -> unit
