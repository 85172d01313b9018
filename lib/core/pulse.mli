(** Rate-modulation pulses (§3.4, Fig. 7).

    The asymmetric sinusoidal pulse adds a half-sine of amplitude [A] for the
    first quarter of the period and subtracts a half-sine of amplitude [A/3]
    for the remaining three quarters, so the two lobes cancel over one period
    while allowing senders with rates as low as [A/3] to pulse. *)

type shape =
  | Asymmetric  (** the paper's pulse: +A for T/4, −A/3 for 3T/4 *)
  | Symmetric  (** plain sinusoid of amplitude A — ablation only *)

(** [value ~shape ~amplitude ~freq t] is the additive (signed) rate offset
    at absolute time [t], for pulses of frequency [freq] phase-locked to
    [t = 0].
    @raise Invalid_argument if [freq <= 0] or [amplitude < 0]. *)
val value :
  shape:shape ->
  amplitude:Units.Rate.t ->
  freq:Units.Freq.t ->
  Units.Time.t ->
  Units.Rate.t

(** [value_to ~shape ~amplitude ~freq t dst i] writes
    [Rate.to_bps (value ~shape ~amplitude ~freq t)] into [dst.(i)]: the same
    bits, without the box a float returned across a module boundary takes.
    A pulser's pacing hook reads its waveform this way on every pacer wake.
    @raise Invalid_argument as {!value} does. *)
val value_to :
  shape:shape ->
  amplitude:Units.Rate.t ->
  freq:Units.Freq.t ->
  Units.Time.t ->
  Float.Array.t ->
  int ->
  unit

(** [min_send_rate ~shape ~amplitude] is the lowest mean rate that keeps the
    modulated rate non-negative throughout the period: [A/3] for the
    asymmetric pulse, [A] for the symmetric one. *)
val min_send_rate : shape:shape -> amplitude:Units.Rate.t -> Units.Rate.t

(** [mean ~shape ~amplitude ~freq ~samples] numerically averages the pulse
    over one period — a test helper asserting zero mean. *)
val mean :
  shape:shape ->
  amplitude:Units.Rate.t ->
  freq:Units.Freq.t ->
  samples:int ->
  Units.Rate.t
