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

(** [value_to ~shape reg i] is the register form of {!value}: it reads
    the amplitude in bits/s from [reg.(i)], the frequency in Hz from
    [reg.(i+1)] and the instant in seconds from [reg.(i+2)], and writes
    the offset in bits/s into [reg.(i+3)], the same bits {!value} returns,
    without the boxes floats take across a module boundary.  A pulser's
    wake hook reads its waveform this way on every pacer wake.
    @raise Invalid_argument as {!value} does. *)
val value_to : shape:shape -> Float.Array.t -> int -> unit

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
