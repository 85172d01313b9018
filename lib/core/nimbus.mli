(** Nimbus: mode-switching congestion control driven by elasticity detection
    (§4, §6 of the paper).

    A Nimbus flow runs a TCP-competitive algorithm (Cubic or Reno) when the
    elasticity detector reports elastic cross traffic, and a delay-controlling
    algorithm (BasicDelay, Vegas, or Copa's default mode) otherwise. The
    sender modulates its pacing rate with asymmetric sinusoidal pulses and
    reads the cross-traffic response off the FFT of ẑ(t).

    With [multi_flow] enabled, flows coordinate without communicating: one
    *pulser* encodes the current mode in its pulse frequency
    ([fp_competitive] vs [fp_delay]); *watchers* read that frequency out of
    the spectrum of their own receive rate (tracked bin by bin on a
    sliding-DFT bank, {!Elasticity.watch}), smooth their transmission rate below
    the pulsing band so the pulser sees them as inelastic, and run a
    randomized election when no pulser is audible (Eq. 5). *)

type mode =
  | Delay
  | Competitive

type role =
  | Pulser
  | Watcher

type competitive_alg =
  [ `Cubic
  | `Reno
  ]

type delay_alg =
  [ `Basic_delay
  | `Vegas
  | `Copa_default
  ]

(** What a detection was based on — the failure-recovery state machine made
    observable. Watchers report whether the pulser's tone is currently heard,
    has never been heard / recently faded ([Ev_pulser_quiet]), or has been
    silent for longer than [pulse_timeout] after being heard
    ([Ev_pulser_lost], the orphaned state that boosts the Eq. 5 election). *)
type evidence =
  | Ev_eta of float  (** pulser: its own Eq. 3 verdict *)
  | Ev_pulser_heard of mode  (** watcher: tone audible, following this mode *)
  | Ev_pulser_quiet  (** watcher: no tone, but not (yet) orphaned *)
  | Ev_pulser_lost  (** watcher: tone lost for > [pulse_timeout] *)
  | Ev_elected  (** this flow just won the election and became the pulser *)

(** Detection outcome passed to the [on_detection] hook every detection
    interval once the FFT window is full (plus once, out of cadence, when a
    flow wins the election). *)
type detection = {
  d_time : Units.Time.t;
  d_eta : float;
      (** Eq. 3 at the active pulse frequency; nan for watchers (they track
          the pulser instead) *)
  d_mode : mode;  (** mode after this detection *)
  d_role : role;
  d_evidence : evidence;
}

(** Per-tick raw signals passed to the [on_sample] hook (10 ms period). *)
type sample = {
  s_time : Units.Time.t;
  s_send_rate : Units.Rate.t;  (** S(t) *)
  s_recv_rate : Units.Rate.t;  (** R(t) *)
  s_z : Units.Rate.t;  (** ẑ(t); {!Units.Rate.unknown} before measurable *)
  s_base_rate : Units.Rate.t;  (** inner controller rate, before pulses *)
}

type t

(** Construction parameters.  Start from {!Config.default} (which fixes
    the paper's defaults) and override fields with record-update syntax:
    {[
      Nimbus.create
        { (Nimbus.Config.default ~mu) with multi_flow = true; seed = 42 }
    ]} *)
module Config : sig
  type nonrec t = {
    mu : Z_estimator.Mu.t;
        (** link-rate source (supply {!Z_estimator.Mu.known} in
            emulation, {!Z_estimator.Mu.estimator} on unknown paths) *)
    competitive : competitive_alg;  (** TCP-competitive algorithm *)
    delay : delay_alg;  (** delay-control algorithm *)
    pulse_frac : float;  (** pulse amplitude as a fraction of µ *)
    pulse_shape : Pulse.shape;
    fp_competitive : Units.Freq.t;
        (** pulse frequency in competitive mode.  Like [fp_delay] it must
            be an exact bin of the keep-alive probe window (see
            {!create}): a whole number of hertz at the defaults *)
    fp_delay : Units.Freq.t;
        (** pulse frequency in delay mode; only pulsed when
            [use_mode_frequencies] is on, but always probed for *)
    use_mode_frequencies : bool option;
        (** encode the mode in the pulse frequency
            ([None]: on iff [multi_flow]) *)
    fft_window : Units.Time.t;  (** duration of ẑ per FFT *)
    sample_interval : Units.Time.t;  (** tick period *)
    detect_interval : Units.Time.t;  (** how often to re-run detection *)
    eta_thresh : float;  (** detection threshold *)
    multi_flow : bool;
        (** enable the pulser/watcher protocol ([false]: this flow
            always pulses) *)
    kappa : float;
        (** election aggressiveness, expected pulsers per FFT window *)
    delay_target : Units.Time.t;
        (** BasicDelay's queueing-delay target *)
    switch_streak : int;
        (** consecutive inelastic detections required before leaving
            competitive mode (default 30, i.e. three seconds at the
            default detection interval); switching into competitive
            mode is immediate.  Set 1 to reproduce the paper's
            memoryless rule. *)
    pulse_timeout : Units.Time.t;
        (** watcher failover latency: once a pulse tone that was heard
            on the fast keep-alive probe (a sliding DFT of the
            trailing ~1 s of the receive rate at both mode frequencies) has been silent
            this long, the watcher is {e orphaned} — its
            [on_detection] evidence becomes [Ev_pulser_lost] and its
            Eq. 5 election probability is boosted so a replacement
            pulser appears within one FFT window of a pulser death *)
    z_gate_delay : Units.Time.t;
        (** standing-queue threshold: when [rtt − min_rtt] is below it
            the bottleneck has no backlog, Eq. 1 is invalid (and
            nothing elastic can be present), so the ẑ sample is forced
            to 0 *)
    min_z_frac : float;
        (** minimum mean ẑ (as a fraction of µ) over the FFT window
            for an elastic verdict — with no meaningful cross traffic
            Eq. 3 is a ratio of noise bins, so η is forced ≤ 1 below
            this floor *)
    rate_reset : bool;
        (** restore the pre-squeeze rate when entering competitive
            mode ([false] ablates §4.1's reset) *)
    taper : Nimbus_dsp.Window.kind option;
        (** forwarded to {!Elasticity.create} *)
    detrend : Nimbus_dsp.Spectrum.detrend option;
        (** forwarded to {!Elasticity.create} *)
    seed : int;  (** randomness for the election *)
    trace : Nimbus_trace.Trace.t;
        (** collector for [detector]/[spectrum]/[pulse]/[mode]/
            [election] events (default {!Nimbus_trace.Trace.disabled}) *)
    on_detection : (detection -> unit) option;  (** observation hook *)
    on_sample : (sample -> unit) option;  (** observation hook *)
  }

  (** [default ~mu] — the paper's defaults: Cubic/BasicDelay inners,
      0.25 pulse fraction, asymmetric pulses at 5/6 Hz, 5 s FFT window,
      10 ms ticks, 100 ms detection, η threshold 2, single-flow,
      κ = 1, 12.5 ms delay target, 30-streak hysteresis, 1 s pulse
      timeout, 3 ms ẑ gate, 0.05 ẑ floor, rate reset on, tracing
      off. *)
  val default : mu:Z_estimator.Mu.t -> t
end

(** [create config] builds a Nimbus instance; pass [cc t] to
    {!Nimbus_cc.Flow.create_via} with the same [tick_interval] as
    [config.sample_interval].

    The keep-alive probes track both mode frequencies as whole DFT bins of
    their window of [recent_len = round (min 1 s (fft_window / 2) /
    sample_interval)] samples, so each of [fp_competitive] and [fp_delay]
    must be a multiple of [1 / (recent_len · sample_interval)]: 1 Hz at
    the default 5 s window and 10 ms ticks, where 2, 5 and 6 Hz qualify.
    @raise Invalid_argument if a mode frequency is not such a bin. *)
val create : Config.t -> t

(** [cc t ~now] is the engine-facing controller. [now] must read the
    simulation clock — the pulse waveform is evaluated at packet-send time,
    not just on ticks. *)
val cc : t -> now:(unit -> Units.Time.t) -> Nimbus_cc.Cc_types.t

(** Current state, for experiment scoring and plots. *)

val mode : t -> mode

val role : t -> role

(** [last_eta t] — [nan] until the first full-window detection. *)
val last_eta : t -> float

(** [last_z t] — most recent ẑ sample; {!Units.Rate.unknown} before any. *)
val last_z : t -> Units.Rate.t

(** [tone_level t] — oscillation amplitude of the fast pulse keep-alive
    probe (a sliding DFT of the trailing ~1 s of the receive rate,
    the louder of the two mode frequencies); {!Units.Rate.unknown} until the
    probe window fills. *)
val tone_level : t -> Units.Rate.t

(** [base_rate t] — inner controller rate before pulse modulation. *)
val base_rate : t -> Units.Rate.t

(** [detector t] — the underlying ẑ elasticity detector (spectra etc.). *)
val detector : t -> Elasticity.t

(** [pulse_freq t] — the frequency this flow currently pulses at;
    {!Units.Freq.unknown} for watchers. *)
val pulse_freq : t -> Units.Freq.t

val mode_to_string : mode -> string

val role_to_string : role -> string

val evidence_to_string : evidence -> string
