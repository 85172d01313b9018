module Cc_types = Nimbus_cc.Cc_types
module Cubic = Nimbus_cc.Cubic
module Copa = Nimbus_cc.Copa
module Basic_delay = Nimbus_cc.Basic_delay
module Ring = Nimbus_dsp.Ring
module Ewma = Nimbus_dsp.Ewma
module Bank = Nimbus_dsp.Goertzel.Bank
module Rng = Nimbus_sim.Rng
module Time = Units.Time
module Freq = Units.Freq
module Rate = Units.Rate
module B = Units.Bytes
module Trace = Nimbus_trace.Trace
module Tev = Nimbus_trace.Event
module Span = Nimbus_trace.Span

type mode =
  | Delay
  | Competitive

type role =
  | Pulser
  | Watcher

type competitive_alg = [ `Cubic ]

type delay_alg =
  [ `Basic_delay
  | `Copa_default
  ]

type evidence =
  | Ev_eta of float
  | Ev_pulser_heard of mode
  | Ev_pulser_quiet
  | Ev_pulser_lost
  | Ev_elected

type detection = {
  d_time : Units.Time.t;
  d_eta : float;
  d_mode : mode;
  d_role : role;
  d_evidence : evidence;
}

type sample = {
  s_time : Units.Time.t;
  s_send_rate : Units.Rate.t;
  s_recv_rate : Units.Rate.t;
  s_z : Units.Rate.t;
  s_base_rate : Units.Rate.t;
}

type delay_inner =
  | D_basic of Basic_delay.t
  | D_copa of Copa.t

(* Internal state stays raw float (bits/s, Hz, seconds) — detection maths and
   the per-tick hot path run unwrapped; the typed boundary is the .mli. *)

(* The per-tick mutable floats live in their own all-float record: OCaml
   stores such a record flat, so these assignments do not box, unlike a
   mutable float field in the mixed record below. *)
type hot = {
  mutable last_eta : float;
  mutable last_z : float;
  mutable srtt : float;
  mutable next_detect : float;
  mutable mu_cache : float;
  (* the pulser's burst allowance, refreshed at the end of every tick (see
     [refresh]): it changes only at ticks *)
  mutable burst : float;
}

type t = {
  mu : Z_estimator.Mu.t;
  comp : Cubic.t;
  delay : delay_inner;
  comp_cc : Cc_types.t;  (* [comp]'s hooks, built once: no record per ACK *)
  delay_cc : Cc_types.t option;  (* [delay]'s; [None] for Basic_delay, which
                                    ignores ACKs and losses *)
  pulse_frac : float;
  pulse_shape : Pulse.shape;
  fp_competitive : float;
  fp_delay : float;
  fft_window : float;
  multi_flow : bool;
  kappa : float;
  rng : Rng.t;
  on_detection : (detection -> unit) option;
  on_sample : (sample -> unit) option;
  z_detector : Elasticity.t;   (* ẑ window: the pulser's elasticity source *)
  r_detector : Elasticity.t;   (* own receive rate: watcher / conflict source;
                                  multi-flow watches slots 0, 1 = fp_c, fp_d *)
  (* Pulse keep-alive: rectangular, undetrended banks over the trailing
     ~1 s of the receive rate, slot 0 at fp_competitive and slot 1 at
     fp_delay.  The full-window audibility test needs most of an FFT window
     to fade after the pulser dies; these recent probes go quiet within
     about a second, which is what lets watchers notice a dead pulser within
     one FFT window. *)
  tones : Bank.t;
  (* Same fast probes over ẑ: a pulser's conflict evidence.  The full-window
     spectrum remembers a demoted peer's pulses for up to [fft_window]; these
     clear within about a second of the peer yielding, so one pulser backing
     off does not drag the survivor down with stale evidence. *)
  ztones : Bank.t;
  recent_len : int;            (* tone probe window, in samples *)
  (* the floats the tick and the pacing hook read from other modules,
     written here by their readers so that reading them boxes nothing; the
     [lv_*] indices *)
  levels : Float.Array.t;
  mutable tone_heard_at : float; (* nan until a pulser has ever been heard *)
  mutable follow_target : mode option; (* watcher switch-confirmation streak *)
  mutable follow_streak : int;
  mutable next_conflict_coin : float; (* earliest next demotion coin flip *)
  rate_history : Ring.t;       (* base rates, one per tick, ~fft_window deep *)
  smoothed_rate : Ewma.t;      (* watcher low-pass on the transmitted rate *)
  mutable mode : mode;
  mutable role : role;
  hot : hot;
  (* The hooks' answers that change only at ticks, boxed once per tick by
     [refresh] so that the per-packet [cwnd] and [pacing_rate] return them
     as they are: the Delay-mode window over Basic_delay, a watcher's
     pacing rate, and the pulser's waveform amplitude and frequency. *)
  mutable basic_cwnd : B.t;
  mutable watch_pace : Rate.t option;
  mutable wave_amp : Rate.t;
  mutable wave_freq : Freq.t;
  switch_streak : int;
  mutable inelastic_streak : int;
  mutable elastic_streak : int;
  rate_reset : bool;
  trace : Trace.t;
}

let mode_to_string = function
  | Delay -> "delay"
  | Competitive -> "competitive"

let role_to_string = function
  | Pulser -> "pulser"
  | Watcher -> "watcher"

module Config = struct
  type nonrec t = {
    mu : Z_estimator.Mu.t;
    competitive : competitive_alg;
    delay : delay_alg;
    pulse_frac : float;
    pulse_shape : Pulse.shape;
    fp_competitive : Freq.t;
    fp_delay : Freq.t;
    fft_window : Time.t;
    multi_flow : bool;
    kappa : float;
    switch_streak : int;
    rate_reset : bool;
    taper : Nimbus_dsp.Window.kind option;
    seed : int;
    trace : Trace.t;
    on_detection : (detection -> unit) option;
    on_sample : (sample -> unit) option;
  }

  let default ~mu =
    {
      mu;
      competitive = `Cubic;
      delay = `Basic_delay;
      pulse_frac = 0.25;
      pulse_shape = Pulse.Asymmetric;
      fp_competitive = Freq.hz 5.;
      fp_delay = Freq.hz 6.;
      fft_window = Time.secs 5.;
      multi_flow = false;
      kappa = 1.;
      switch_streak = 30;
      rate_reset = true;
      taper = None;
      seed = 0xD15EA5E;
      trace = Trace.disabled;
      on_detection = None;
      on_sample = None;
    }
end

(* [levels] layout: [Elasticity.watch_levels]'s tone amplitudes,
   oscillations and reference for the two mode tones, then the keep-alive
   probe's level, a detector's window mean, the pulser's waveform value
   and the election coin's probability, which {!Rng.bool_at} reads in
   place *)
let lv_amp_c = 0
let lv_amp_d = 1
let lv_osc_c = 2
let lv_osc_d = 3
let lv_reference = 4
let lv_tone = 5
let lv_mean = 6
let lv_wave = 7
let lv_coin = 8
let lv_count = 9

(* The operating point the paper fixes.  A flow ticks once per ẑ sample,
   so the tick period is the detector's sample interval. *)
let sample_interval = Time.to_secs Elasticity.sample_interval

let detect_interval = Time.to_secs (Time.ms 100.)

(* watcher failover latency: once a pulse tone that was heard on the fast
   keep-alive probe has been silent this long, the watcher is orphaned (its
   evidence becomes [Ev_pulser_lost] and its Eq. 5 election is boosted) *)
let pulse_timeout = Time.to_secs (Time.secs 1.)

(* standing-queue threshold: below it the bottleneck has no backlog, Eq. 1 is
   invalid (and nothing elastic can be present), so ẑ is forced to 0 *)
let z_gate_delay = Time.to_secs (Time.ms 3.)

(* minimum mean ẑ, as a fraction of µ, over the FFT window for an elastic
   verdict: with no meaningful cross traffic Eq. 3 is a ratio of noise bins *)
let min_z_frac = 0.05

let create (cfg : Config.t) =
  let { Config.mu; competitive = `Cubic; delay; pulse_frac; pulse_shape;
        fp_competitive; fp_delay; fft_window; multi_flow; kappa;
        switch_streak; rate_reset; taper; seed; trace; on_detection;
        on_sample } =
    cfg
  in
  let mk_detector () = Elasticity.create ~window:fft_window ?taper () in
  let fp_competitive = Freq.to_hz fp_competitive in
  let fp_delay = Freq.to_hz fp_delay in
  let fft_window = Time.to_secs fft_window in
  let mu_now = Rate.to_bps (Z_estimator.Mu.current mu ~now:Time.zero) in
  let mu_guess = if Float.is_nan mu_now then 10e6 else mu_now in
  let comp = Cubic.create () in
  let delay =
    match delay with
    | `Basic_delay ->
      D_basic (Basic_delay.create ~mu:(Rate.bps mu_guess) ())
    | `Copa_default -> D_copa (Copa.create ~switching:false ())
  in
  let comp_cc = Cubic.cc comp in
  let delay_cc =
    match delay with
    | D_basic _ -> None
    | D_copa c -> Some (Copa.cc c)
  in
  let hist_len =
    max 2 (int_of_float (Float.round (fft_window /. sample_interval)))
  in
  (* trailing ~1 s (never more than half the FFT window) for the tone probe *)
  let recent_len =
    max 2
      (int_of_float
         (Float.round (Float.min 1.0 (fft_window /. 2.) /. sample_interval)))
  in
  (* the probe banks track whole DFT bins of their window only *)
  let probe_bin f =
    let k = f *. float_of_int recent_len *. sample_interval in
    let bin = Float.round k in
    if Float.abs (k -. bin) > 1e-9 *. Float.max 1. k then
      invalid_arg
        (Printf.sprintf
           "Nimbus.create: %g Hz is not an exact bin of the %d-sample \
            keep-alive window"
           f recent_len);
    int_of_float bin
  in
  let bins = [| probe_bin fp_competitive; probe_bin fp_delay |] in
  let tone_probe () =
    Bank.create ~window:recent_len ~taper:Nimbus_dsp.Window.Rectangular
      ~detrend:`None ~bins ()
  in
  let r_detector = mk_detector () in
  if multi_flow then begin
    (* reference band for the pulser search: above both pulse frequencies,
       below the second harmonic of the lower one *)
    let hi_f = Float.max fp_competitive fp_delay in
    let lo_f = Float.min fp_competitive fp_delay in
    Elasticity.watch r_detector
      ~tones:[| Freq.hz fp_competitive; Freq.hz fp_delay |]
      ~lo:(Freq.hz (hi_f +. 0.8))
      ~hi:(Freq.hz ((2. *. lo_f) -. 0.2))
  end;
  { mu; comp; delay; comp_cc; delay_cc; pulse_frac; pulse_shape;
    fp_competitive; fp_delay; fft_window; multi_flow; kappa;
    rng = Rng.create seed; on_detection; on_sample;
    z_detector = mk_detector (); r_detector;
    tones = tone_probe (); ztones = tone_probe (); recent_len;
    levels = Float.Array.make lv_count 0.;
    tone_heard_at = nan; follow_target = None; follow_streak = 0;
    next_conflict_coin = 0.;
    rate_history = Ring.create hist_len;
    (* the cutoff must sit well below the pulsing band: the watcher's inner
       controller reacts to the pulser's rate fluctuations within ticks, and
       any residual energy at f_p in the watcher's transmission reads as
       elastic cross traffic at the pulser *)
    smoothed_rate =
      Ewma.create_cutoff
        ~freq:(Float.min fp_competitive fp_delay /. 20.)
        ~dt:sample_interval;
    mode = Delay;
    role = (if multi_flow then Watcher else Pulser);
    hot =
      { last_eta = nan; last_z = nan; srtt = nan; next_detect = fft_window;
        mu_cache = mu_now; burst = 0. };
    (* placeholders until [cc] refreshes them *)
    basic_cwnd = B.bytes nan; watch_pace = None; wave_amp = Rate.unknown;
    wave_freq = Freq.unknown;
    switch_streak;
    inelastic_streak = 0; elastic_streak = 0; rate_reset; trace }

let mode t = t.mode

let role t = t.role

let last_eta t = t.hot.last_eta

let last_z t = Rate.bps t.hot.last_z

let detector t = t.z_detector

(* --- inner-controller plumbing ------------------------------------------ *)

(* Cubic keeps its window boxed, so this read allocates nothing *)
let comp_cwnd t = Cubic.cwnd_bytes t.comp

(* The helpers the per-packet hooks use are inlined: a float passed to or
   returned from a call that is not inlined travels boxed. *)
let[@inline] srtt_or t default =
  if Float.is_nan t.hot.srtt then default else t.hot.srtt
[@@alloc_free]

(* rate in bits per second of a window-based controller *)
let[@inline] rate_of_cwnd t cwnd =
  cwnd *. 8. /. Float.max (srtt_or t 0.1) 1e-3
[@@alloc_free]

(* the inner controller's rate; Basic_delay, like Cubic, keeps its rate
   boxed, so reading it allocates nothing *)
let[@inline] base_rate_bps t =
  match t.mode with
  | Competitive -> rate_of_cwnd t (B.to_float (comp_cwnd t))
  | Delay ->
    (match t.delay with
     | D_basic b -> Rate.to_bps (Basic_delay.rate b)
     | D_copa c -> rate_of_cwnd t (B.to_float (Copa.cwnd_bytes c)))
[@@alloc_free]

(* Not inlined: the tick hands the result on to the rate history and the
   smoothing filter, and a call returns Basic_delay's box as it is, where an
   inlined read is unboxed and then boxed again for each of them. *)
let[@inline never] base_rate t = Rate.bps (base_rate_bps t)

(* --- trace plumbing ------------------------------------------------------- *)

let tev_mode = function Delay -> Tev.Delay | Competitive -> Tev.Competitive
let tev_role = function Pulser -> Tev.Pulser | Watcher -> Tev.Watcher

let tev_evidence = function
  | Ev_eta _ -> Tev.Eta
  | Ev_pulser_heard Delay -> Tev.Heard_delay
  | Ev_pulser_heard Competitive -> Tev.Heard_competitive
  | Ev_pulser_quiet -> Tev.Quiet
  | Ev_pulser_lost -> Tev.Lost
  | Ev_elected -> Tev.Won

(* --- mode switching ------------------------------------------------------ *)

let switch_to t target ~now =
  if t.mode <> target then begin
    if Trace.want t.trace Tev.Mode then
      Trace.mode_switch t.trace ~now ~from_mode:(tev_mode t.mode)
        ~to_mode:(tev_mode target) ~role:(tev_role t.role);
    (match target with
     | Competitive ->
       (* restore the pre-squeeze rate (§4.1).  The paper words this as "the
          rate 5 seconds ago", but when detection takes slightly longer than
          the squeeze the sample exactly one window back is already crushed;
          the maximum over the window is the value the reset is after. *)
       let restore =
         if (not t.rate_reset) || Ring.count t.rate_history = 0 then
           base_rate_bps t
         else Ring.fold t.rate_history ~init:0. ~f:Float.max
       in
       let restore =
         if Float.is_nan t.hot.mu_cache then restore else Float.min restore t.hot.mu_cache
       in
       let cwnd = restore *. srtt_or t 0.1 /. 8. in
       Cubic.reset_cwnd t.comp (B.bytes cwnd)
     | Delay ->
       let current = rate_of_cwnd t (B.to_float (comp_cwnd t)) in
       (match t.delay with
        | D_basic b -> Basic_delay.set_rate b (Rate.bps current)
        | D_copa c -> Copa.reset_cwnd c (comp_cwnd t)));
    t.mode <- target
  end

(* --- pulsing -------------------------------------------------------------- *)

let pulse_freq_hz t =
  match t.role with
  | Watcher -> nan
  | Pulser ->
    if t.multi_flow then
      (match t.mode with
       | Competitive -> t.fp_competitive
       | Delay -> t.fp_delay)
    else t.fp_competitive

let pulse_freq t = Freq.hz (pulse_freq_hz t)

(* the watcher and probe bank slot of a mode's pulse frequency *)
let mode_slot = function Competitive -> 0 | Delay -> 1

let[@inline] pulse_amplitude t =
  if Float.is_nan t.hot.mu_cache then 0. else t.pulse_frac *. t.hot.mu_cache
[@@alloc_free]

(* A pulser's waveform offset at [now] in bits/s, 0 until µ is known.  The
   amplitude, frequency and instant come in boxed and the value goes out
   through [levels], so the call boxes nothing. *)
let[@inline] pulse_offset t ~amplitude ~freq now =
  if Float.is_nan t.hot.mu_cache then 0.
  else begin
    Pulse.value_to ~shape:t.pulse_shape ~amplitude ~freq now t.levels lv_wave;
    Float.Array.get t.levels lv_wave
  end
[@@alloc_free]

(* --- detection ------------------------------------------------------------ *)

let emit_detection t ~now ~eta ~evidence =
  if Trace.want t.trace Tev.Mode then
    Trace.detection t.trace ~now ~eta ~mode:(tev_mode t.mode)
      ~role:(tev_role t.role) ~evidence:(tev_evidence evidence);
  match t.on_detection with
  | Some f ->
    f
      { d_time = Time.secs now; d_eta = eta; d_mode = t.mode; d_role = t.role;
        d_evidence = evidence }
  | None -> ()

let pulser_detect t ~now =
  let fp = pulse_freq_hz t in
  (* fp's watcher-bank slot, fixed before the verdict below can switch mode *)
  let fp_slot = if t.multi_flow then mode_slot t.mode else 0 in
  if Elasticity.ready t.z_detector then begin
    let eta = Elasticity.eta t.z_detector ~freq:(Freq.hz fp) in
    (* with (almost) no cross traffic there is nothing whose elasticity the
       ratio could measure -- Eq. 3 on a near-zero signal is noise over
       noise, so require a minimum mean cross-traffic level for an elastic
       verdict.  Likewise, a genuine ACK-clocked reaction to our pulses has
       an amplitude that is a sizeable fraction of the pulse amplitude;
       requiring it suppresses residues such as a smoothed Nimbus watcher's
       low-pass leakage. *)
    Elasticity.mean_to t.z_detector t.levels lv_mean;
    let zbar = Float.Array.get t.levels lv_mean in
    let z_floor =
      if Float.is_nan t.hot.mu_cache then 0. else min_z_frac *. t.hot.mu_cache
    in
    let eta = if zbar < z_floor then Float.min eta 1.0 else eta in
    (* Elasticity.eta is +inf when the reference band carries exactly zero
       energy; clamp so consumers (and the finite-signal invariant) always
       see a finite verdict.  nan propagates: min nan x = nan. *)
    let eta = Float.min eta 1e6 in
    t.hot.last_eta <- eta;
    if Trace.want t.trace Tev.Spectrum then begin
      let n = float_of_int t.recent_len in
      let probe_amp slot =
        if Bank.filled t.ztones then
          2. /. n *. Bank.amplitude t.ztones slot *. 1e-6
        else Float.nan
      in
      Trace.window t.trace ~now ~eta ~zbar:(zbar *. 1e-6) ~lo:(probe_amp 1)
        ~hi:(probe_amp 0)
    end;
    if not (Float.is_nan eta) then begin
      (* asymmetric hysteresis: adopt competitive mode on the first elastic
         verdict (losing throughput to elastic cross traffic is the costly
         error), but require a sustained run of inelastic verdicts before
         dropping back to delay mode, since a single noisy FFT window
         mid-competition would otherwise starve the flow for seconds *)
      if eta >= Elasticity.eta_thresh then begin
        t.inelastic_streak <- 0;
        t.elastic_streak <- t.elastic_streak + 1;
        (* a couple of consecutive verdicts (~0.3 s) filter one-window
           transients without materially delaying a genuine switch *)
        if t.elastic_streak >= 3 || t.mode = Competitive then
          switch_to t Competitive ~now
      end
      else begin
        t.inelastic_streak <- t.inelastic_streak + 1;
        t.elastic_streak <- 0;
        if t.mode = Delay || t.inelastic_streak >= t.switch_streak then
          switch_to t Delay ~now
      end
    end;
    (* multiple-pulser conflict: if the cross traffic carries clearly more
       energy at fp than our own receive rate does -- and that energy is of
       genuine pulse magnitude on the *fast* ẑ probe, so the evidence is at
       most ~1 s old -- someone else is pulsing right now.  A solo pulser
       sees the opposite signature (own receive rate dominates ẑ at fp by an
       order of magnitude, fast ẑ tone under half a percent of µ), so both
       gates have a wide margin.  The coin is flipped at most once per 2 s:
       flipping it every detection interval would demote *both* pulsers
       almost surely before either could observe the other yielding. *)
    if t.multi_flow && Elasticity.ready t.r_detector then begin
      (* [eta] above left the ẑ bank tuned to fp: its peak slot streams *)
      let z_amp = Elasticity.peak_amplitude t.z_detector ~freq:(Freq.hz fp) in
      let r_amp = Elasticity.tone_amplitude t.r_detector fp_slot in
      let z_tone =
        if not (Bank.filled t.ztones) then nan
        else
          2. /. float_of_int t.recent_len
          *. Bank.amplitude t.ztones (mode_slot t.mode)
      in
      let big_enough =
        (not (Float.is_nan t.hot.mu_cache))
        && (not (Float.is_nan z_tone))
        && z_tone >= 0.02 *. t.hot.mu_cache
      in
      if big_enough && z_amp > 1.5 *. r_amp && now >= t.next_conflict_coin
      then begin
        t.next_conflict_coin <- now +. 2.;
        if Rng.bool t.rng ~p:0.5 then begin
          t.role <- Watcher;
          if Trace.want t.trace Tev.Election then Trace.demoted t.trace ~now;
          (* grace period: the demoted pulser must not instantly declare the
             (possibly simultaneously demoted) peer lost and re-elect
             itself *)
          t.tone_heard_at <- now;
          t.follow_target <- None;
          t.follow_streak <- 0
        end
      end
    end;
    emit_detection t ~now ~eta ~evidence:(Ev_eta eta)
  end

(* A pulser is audible when one of the two mode frequencies dominates its
   neighbourhood (the eta-style ratio) AND carries real energy: the pulses
   have amplitude pulse_frac·µ, so the induced receive-rate oscillation at a
   watcher is a sizeable fraction of µ — a floor of 2% µ rejects noise that
   happens to win the ratio test. *)
let audible_pulser t =
  let lv = t.levels in
  if not (Elasticity.watch_levels t.r_detector lv) then None
  else begin
    let amp_c = Float.Array.get lv lv_amp_c in
    let amp_d = Float.Array.get lv lv_amp_d in
    let reference = Float.Array.get lv lv_reference in
    let eta_c = if reference > 0. then amp_c /. reference else 0. in
    let eta_d = if reference > 0. then amp_d /. reference else 0. in
    let osc_c = Float.Array.get lv lv_osc_c in
    let osc_d = Float.Array.get lv lv_osc_d in
    let floor_amp =
      if Float.is_nan t.hot.mu_cache then infinity else 0.02 *. t.hot.mu_cache
    in
    let c_ok = eta_c >= Elasticity.eta_thresh && osc_c >= floor_amp in
    let d_ok = eta_d >= Elasticity.eta_thresh && osc_d >= floor_amp in
    if c_ok && (eta_c >= eta_d || not d_ok) then Some Competitive
    else if d_ok then Some Delay
    else None
  end

(* Oscillation amplitude over the trailing ~1 s of the receive rate at
   whichever mode frequency is louder. *)
let[@inline] tone_level_bps t =
  if not (Bank.filled t.tones) then nan
  else begin
    Bank.band_max_to t.tones ~first:0 ~last:1 t.levels lv_tone;
    2. /. float_of_int t.recent_len *. Float.Array.get t.levels lv_tone
  end

(* [tone_heard_at] refresh: does the trailing ~1 s of the receive rate still
   carry pulse-magnitude energy at either mode frequency?  The floor scales
   with the watcher's own receive level, not with µ: a watcher holding
   fraction s of the link sees a pulse oscillation of roughly
   pulse_frac·s·µ, so an absolute floor would go deaf exactly when many
   flows share the link.  A 1%-of-µ backstop keeps dead-air noise out. *)
let recent_tone_alive t =
  let amp = tone_level_bps t in
  (not (Float.is_nan amp))
  && begin
       Elasticity.mean_to t.r_detector t.levels lv_mean;
       let own = Float.Array.get t.levels lv_mean in
       let mu_floor =
         if Float.is_nan t.hot.mu_cache then infinity
         else 0.01 *. t.hot.mu_cache
       in
       (not (Float.is_nan own)) && own >= mu_floor && amp >= 0.025 *. own
     end

let orphaned t ~now =
  (not (Float.is_nan t.tone_heard_at))
  && now -. t.tone_heard_at > pulse_timeout

let watcher_detect t ~now =
  if Elasticity.ready t.r_detector then begin
    t.hot.last_eta <- nan;
    let audible = audible_pulser t in
    if Trace.want t.trace Tev.Election then
      Trace.keepalive t.trace ~now ~tone:(tone_level_bps t *. 1e-6)
        ~alive:(recent_tone_alive t);
    (* either probe refreshes the keep-alive: the fast Goertzel catches a
       death quickly, while the full-window test bridges the 1–2 s tone
       dropouts a live pulser produces while resetting rates across a mode
       switch *)
    if recent_tone_alive t || audible <> None then t.tone_heard_at <- now;
    (match audible with
     | Some target when target <> t.mode ->
       (* switch confirmation: follow the pulser only after three
          consecutive identical verdicts (~0.3 s), mirroring the pulser's
          own streak hysteresis so that a loss burst rattling the spectrum
          cannot flap the mode at the detection period *)
       (match t.follow_target with
        | Some m when m = target ->
          t.follow_streak <- t.follow_streak + 1;
          if t.follow_streak >= 3 then begin
            switch_to t target ~now;
            t.follow_target <- None;
            t.follow_streak <- 0
          end
        | Some _ | None ->
          t.follow_target <- Some target;
          t.follow_streak <- 1)
     | Some _ | None ->
       t.follow_target <- None;
       t.follow_streak <- 0);
    let evidence =
      match audible with
      | Some target -> Ev_pulser_heard target
      | None -> if orphaned t ~now then Ev_pulser_lost else Ev_pulser_quiet
    in
    emit_detection t ~now ~eta:nan ~evidence
  end

(* Eq. 5: per-decision probability of becoming the pulser, proportional to
   this flow's share of the link. *)
let election t ~now ~recv_rate =
  if
    t.multi_flow && t.role = Watcher
    && Elasticity.ready t.r_detector
    && not (Float.is_nan t.hot.mu_cache || Float.is_nan recv_rate)
  then begin
    (* Both probes must be silent before a candidacy: the full-window test
       alone lags by most of an FFT window, so a watcher that can already
       hear a freshly elected pulser on the fast keep-alive probe would
       otherwise elect itself against it. *)
    if (not (recent_tone_alive t)) && audible_pulser t = None then begin
      (* Eq. 5, with the share term floored: if every flow is squeezed by
         undetected elastic traffic, all receive rates collapse and the
         pure rate-proportional rule can never bootstrap a pulser *)
      let share = Float.max (recv_rate /. t.hot.mu_cache) 0.05 in
      (* Pulser-failure recovery: once a previously heard pulse tone has
         been silent for pulse_timeout, shorten Eq. 5's horizon from one
         FFT window to ~1.5 s so a replacement pulser appears within one
         window of the failure instead of within one further window.  The
         boosted horizon must stay longer than the ~1 s the keep-alive
         probe needs to acquire the winner's tone, or the losers elect
         themselves before they can possibly hear the winner. *)
      let horizon = if orphaned t ~now then 1.5 else t.fft_window in
      let p = t.kappa *. sample_interval /. horizon *. share in
      Float.Array.set t.levels lv_coin (Float.max 0. (Float.min 1. p));
      if Rng.bool_at t.rng t.levels lv_coin then begin
        t.role <- Pulser;
        t.tone_heard_at <- nan;
        t.follow_target <- None;
        t.follow_streak <- 0;
        if Trace.want t.trace Tev.Election then
          Trace.elected t.trace ~now ~p:(Float.Array.get t.levels lv_coin);
        emit_detection t ~now ~eta:nan ~evidence:Ev_elected
      end
    end
  end

(* --- the per-packet hooks ------------------------------------------------ *)

(* Bytes sent in excess of the base rate during one positive pulse lobe:
   the half-sine of amplitude A over T/4 integrates to A·(T/4)·(2/π) bits. *)
let pulse_burst_bytes t =
  let fp = pulse_freq_hz t in
  if Float.is_nan fp then 0.
  else begin
    let period = 1. /. fp in
    pulse_amplitude t *. (period /. 4.) *. (2. /. (4. *. atan 1.)) /. 8.
  end

(* The window must leave room for the positive pulse lobe on top of the base
   rate, or the pulses never reach the wire.  In competitive mode the cap is
   the inner TCP window itself (so Nimbus stays ACK-clock disciplined and
   takes its fair share of drops) plus exactly one pulse burst; in delay mode
   it is a generous anti-runaway bound on the controlled rate. *)
let[@inline] delay_cwnd_bytes t ~base =
  let headroom =
    match t.role with Pulser -> pulse_amplitude t | Watcher -> 0.
  in
  Float.max (8. *. 1500.) (2. *. (base +. headroom) *. srtt_or t 0.1 /. 8.)
[@@alloc_free]

let cwnd t =
  match t.mode with
  | Competitive ->
    let w = B.to_float (comp_cwnd t) in
    B.bytes
      (match t.role with
       | Pulser -> w +. t.hot.burst
       | Watcher ->
         (* a window-limited watcher would be ACK-clocked -- i.e. genuinely
            elastic cross traffic to the pulser; keep it rate-paced at the
            smoothed rate with a loose anti-runaway cap instead *)
         1.5 *. w)
  | Delay ->
    (match t.delay with
     | D_basic _ -> t.basic_cwnd
     | D_copa _ -> B.bytes (delay_cwnd_bytes t ~base:(base_rate_bps t)))

let pacing_rate t ~now =
  match t.role with
  | Watcher -> t.watch_pace
  | Pulser ->
    let base = base_rate_bps t in
    let pulse =
      pulse_offset t ~amplitude:t.wave_amp ~freq:t.wave_freq (now ())
    in
    Some (Rate.bps (Float.max 100_000. (base +. pulse)))

(* Re-derive the hooks' per-tick answers from the state the tick left:
   everything they read except the inner window and the clock changes
   only at ticks. *)
let refresh t =
  (match t.role with
   | Watcher ->
     t.watch_pace <-
       (* the average read in place: [Ewma.value] would box it *)
       Some (Rate.bps (Float.max 100_000. t.smoothed_rate.Ewma.s.avg))
   | Pulser ->
     t.wave_amp <- Rate.bps (pulse_amplitude t);
     t.wave_freq <- pulse_freq t;
     t.hot.burst <- pulse_burst_bytes t);
  match (t.mode, t.delay) with
  | Delay, D_basic _ ->
    t.basic_cwnd <- B.bytes (delay_cwnd_bytes t ~base:(base_rate_bps t))
  | Delay, D_copa _ | Competitive, _ -> ()

(* --- tick ----------------------------------------------------------------- *)

let on_tick t (tk : Cc_types.tick) =
  Span.enter Detector_tick;
  let now = Time.to_secs tk.now in
  let srtt = Time.to_secs tk.srtt in
  let min_rtt = Time.to_secs tk.min_rtt in
  let recv_rate = Rate.to_bps tk.recv_rate in
  if not (Float.is_nan srtt) then t.hot.srtt <- srtt;
  Z_estimator.Mu.observe t.mu ~now:tk.now ~recv_rate:tk.recv_rate;
  (* µ stays in its box for the calls below: re-boxing [mu_cache] would
     allocate *)
  let mu = Z_estimator.Mu.current t.mu ~now:tk.now in
  t.hot.mu_cache <- Rate.to_bps mu;
  (match t.delay with
   | D_basic b when not (Float.is_nan t.hot.mu_cache) -> Basic_delay.set_mu b mu
   | _ -> ());
  (* ẑ and receive-rate windows.  Eq. 1 requires a busy bottleneck: with no
     standing queue the ratio degenerates to µ − S, which tracks our own
     pulses and would read as elastic cross traffic.  No standing queue also
     means nothing elastic is backlogged, so ẑ = 0 is the truthful sample. *)
  let z =
    if Float.is_nan t.hot.mu_cache then nan
    else if
      (not (Float.is_nan srtt))
      && (not (Float.is_nan min_rtt))
      && srtt -. min_rtt < z_gate_delay
    then 0.
    else
      Rate.to_bps
        (Z_estimator.estimate ~mu ~send_rate:tk.send_rate
           ~recv_rate:tk.recv_rate)
  in
  t.hot.last_z <- z;
  Elasticity.add_sample t.z_detector z;
  let r_sample = if Float.is_nan recv_rate then 0. else recv_rate in
  Elasticity.add_sample t.r_detector r_sample;
  Bank.push t.tones r_sample;
  Bank.push t.ztones (if Float.is_nan z then 0. else z);
  (* delay-mode controller runs on ticks *)
  (match (t.mode, t.delay) with
   | Delay, D_basic b -> Basic_delay.update b tk
   | _ -> ());
  let base = Rate.to_bps (base_rate t) in
  Ring.push t.rate_history base;
  Ewma.update t.smoothed_rate base;
  if Trace.want t.trace Tev.Detector then
    Trace.z_tick t.trace ~now ~z:(z *. 1e-6)
      ~send:(Rate.to_bps tk.send_rate *. 1e-6)
      ~recv:(recv_rate *. 1e-6) ~base:(base *. 1e-6);
  if Trace.want t.trace Tev.Pulse then begin
    match t.role with
    | Pulser ->
      Trace.pulse_phase t.trace ~now ~freq:(pulse_freq_hz t)
        ~value:
          (pulse_offset t
             ~amplitude:(Rate.bps (pulse_amplitude t))
             ~freq:(pulse_freq t) (Time.secs now)
          *. 1e-6)
    | Watcher -> ()
  end;
  (match t.on_sample with
   | Some f ->
     f
       { s_time = tk.now; s_send_rate = tk.send_rate;
         s_recv_rate = tk.recv_rate; s_z = Rate.bps z;
         s_base_rate = Rate.bps base }
   | None -> ());
  election t ~now ~recv_rate;
  if now >= t.hot.next_detect then begin
    t.hot.next_detect <- now +. detect_interval;
    match t.role with
    | Pulser -> pulser_detect t ~now
    | Watcher -> watcher_detect t ~now
  end;
  refresh t;
  Span.leave Detector_tick

(* --- the engine-facing controller ----------------------------------------- *)

let on_ack t a =
  match (t.mode, t.delay_cc) with
  | Competitive, _ -> t.comp_cc.on_ack a
  | Delay, Some cc -> cc.on_ack a
  | Delay, None -> ()

let on_loss t l =
  match (t.mode, t.delay_cc) with
  | Competitive, _ -> t.comp_cc.on_loss l
  | Delay, Some cc -> cc.on_loss l
  | Delay, None -> ()

let cc t ~now =
  refresh t;
  { Cc_types.name = "nimbus";
    on_ack = (fun a -> on_ack t a);
    on_loss = (fun l -> on_loss t l);
    on_tick = Some (fun tk -> on_tick t tk);
    cwnd = (fun () -> cwnd t);
    pacing_rate = (fun () -> pacing_rate t ~now) }
