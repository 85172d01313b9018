(* Tests for the paper's core contribution: pulses, the ẑ estimator, the
   elasticity detector, and the Nimbus controller (short closed-loop sims). *)

module Engine = Nimbus_sim.Engine
module Topology = Nimbus_topology.Topology
module Bottleneck = Nimbus_sim.Bottleneck
module Qdisc = Nimbus_sim.Qdisc
module Rng = Nimbus_sim.Rng
module Flow = Nimbus_cc.Flow
module Time = Units.Time
module Rate = Units.Rate
module Freq = Units.Freq
open Nimbus_core

let pi = 4.0 *. atan 1.0

let check_close ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let f5 = Freq.hz 5.

(* --- pulse ---------------------------------------------------------------- *)

let test_pulse_zero_mean () =
  List.iter
    (fun shape ->
      let m =
        Rate.to_bps
          (Pulse.mean ~shape ~amplitude:(Rate.bps 12e6) ~freq:f5
             ~samples:100_000)
      in
      if Float.abs m > 12e6 *. 1e-3 then
        Alcotest.failf "pulse mean %.3g not ~0" m)
    [ Pulse.Asymmetric; Pulse.Symmetric ]

let test_pulse_asymmetric_profile () =
  let amplitude = 24e6 in
  let v t =
    Rate.to_bps
      (Pulse.value ~shape:Pulse.Asymmetric ~amplitude:(Rate.bps amplitude)
         ~freq:f5 (Time.secs t))
  in
  (* peak of the positive lobe at T/8 *)
  check_close ~eps:1. "positive peak" amplitude (v 0.025);
  (* trough of the negative lobe at T/4 + 3T/8 = 0.125 *)
  check_close ~eps:1. "negative trough" (-.amplitude /. 3.) (v 0.125);
  check_close ~eps:1e-3 "zero at boundary" 0. (v 0.05);
  (* periodicity *)
  check_close ~eps:1. "periodic" (v 0.01) (v 0.21);
  (* negative time wraps cleanly *)
  check_close ~eps:1. "negative time" (v 0.19) (v (-0.01))

let test_pulse_min_send_rate () =
  check_close "asym mu/12" 8e6
    (Rate.to_bps
       (Pulse.min_send_rate ~shape:Pulse.Asymmetric ~amplitude:(Rate.bps 24e6)));
  check_close "sym mu/4" 24e6
    (Rate.to_bps
       (Pulse.min_send_rate ~shape:Pulse.Symmetric ~amplitude:(Rate.bps 24e6)))

let test_pulse_validation () =
  Alcotest.(check bool) "freq <= 0" true
    (try
       ignore
         (Pulse.value ~shape:Pulse.Symmetric ~amplitude:(Rate.bps 1.)
            ~freq:(Freq.hz 0.) Time.zero);
       false
     with Invalid_argument _ -> true)

(* --- z estimator ---------------------------------------------------------- *)

let estimate ~mu ~send_rate ~recv_rate =
  Rate.to_bps
    (Z_estimator.estimate ~mu:(Rate.bps mu) ~send_rate:(Rate.bps send_rate)
       ~recv_rate:(Rate.bps recv_rate))

let test_z_estimator_exact () =
  (* S = 24M, cross = 48M on a 96M busy link: R = mu*S/(S+z) = 32M *)
  check_close "recovers z" 48e6
    (estimate ~mu:96e6 ~send_rate:24e6 ~recv_rate:32e6);
  (* no cross traffic: R = S -> z = mu - S... clamped by queue-busy caveat *)
  check_close "alone gives mu - S" 72e6
    (estimate ~mu:96e6 ~send_rate:24e6 ~recv_rate:24e6)

let test_z_estimator_clamps () =
  (* R > S (draining faster than sending) would give negative z *)
  check_close "clamps at 0" 0. (estimate ~mu:96e6 ~send_rate:24e6 ~recv_rate:96e6);
  check_close "clamps at mu" 96e6
    (estimate ~mu:96e6 ~send_rate:50e6 ~recv_rate:1e6)

let test_z_estimator_nan () =
  Alcotest.(check bool) "nan send" true
    (Float.is_nan (estimate ~mu:96e6 ~send_rate:nan ~recv_rate:1e6));
  (* recv_rate = 0 must yield nan (unknown), not the +inf a literal reading
     of Eq. 1 gives: an infinity would survive an is_known test and poison
     downstream max filters. *)
  Alcotest.(check bool) "zero recv" true
    (Float.is_nan (estimate ~mu:96e6 ~send_rate:1e6 ~recv_rate:0.));
  Alcotest.(check bool) "zero recv is not +inf" false
    (Float.equal (estimate ~mu:96e6 ~send_rate:1e6 ~recv_rate:0.)
       Float.infinity);
  Alcotest.(check bool) "unknown, not merely infinite" false
    (Rate.is_known
       (Z_estimator.estimate ~mu:(Rate.bps 96e6) ~send_rate:(Rate.bps 1e6)
          ~recv_rate:Rate.zero))

let test_mu_known () =
  let mu = Z_estimator.Mu.known (Rate.bps 48e6) in
  check_close "known" 48e6
    (Rate.to_bps (Z_estimator.Mu.current mu ~now:Time.zero));
  Z_estimator.Mu.observe mu ~now:(Time.secs 1.) ~recv_rate:(Rate.bps 99e6);
  check_close "known ignores observations" 48e6
    (Rate.to_bps (Z_estimator.Mu.current mu ~now:(Time.secs 1.)))

let test_mu_estimator_tracks_max () =
  let mu = Z_estimator.Mu.estimator ~window:(Time.secs 5.) () in
  Alcotest.(check bool) "starts nan" true
    (not (Rate.is_known (Z_estimator.Mu.current mu ~now:Time.zero)));
  Z_estimator.Mu.observe mu ~now:(Time.secs 1.) ~recv_rate:(Rate.bps 10e6);
  Z_estimator.Mu.observe mu ~now:(Time.secs 2.) ~recv_rate:(Rate.bps 40e6);
  Z_estimator.Mu.observe mu ~now:(Time.secs 3.) ~recv_rate:(Rate.bps 20e6);
  check_close "max" 40e6
    (Rate.to_bps (Z_estimator.Mu.current mu ~now:(Time.secs 3.)));
  (* the 40M sample ages out of the window *)
  Z_estimator.Mu.observe mu ~now:(Time.secs 8.) ~recv_rate:(Rate.bps 20e6);
  check_close "window expiry" 20e6
    (Rate.to_bps (Z_estimator.Mu.current mu ~now:(Time.secs 8.)))

let test_mu_estimator_ignores_non_finite () =
  (* non-finite samples must not enter the max filter: a single +inf or nan
     observation would otherwise stick as "the bottleneck rate" *)
  let mu = Z_estimator.Mu.estimator ~window:(Time.secs 5.) () in
  Z_estimator.Mu.observe mu ~now:(Time.secs 1.) ~recv_rate:(Rate.bps 10e6);
  Z_estimator.Mu.observe mu ~now:(Time.secs 2.) ~recv_rate:(Rate.bps infinity);
  Z_estimator.Mu.observe mu ~now:(Time.secs 3.) ~recv_rate:(Rate.bps nan);
  check_close "non-finite samples dropped" 10e6
    (Rate.to_bps (Z_estimator.Mu.current mu ~now:(Time.secs 3.)))

(* --- elasticity detector -------------------------------------------------- *)

let feed det f =
  for i = 0 to 499 do
    Elasticity.add_sample det (f (float_of_int i *. 0.01))
  done

let test_detector_needs_full_window () =
  let det = Elasticity.create () in
  Alcotest.(check bool) "not ready" false (Elasticity.ready det);
  Alcotest.(check bool) "eta nan" true
    (Float.is_nan (Elasticity.eta det ~freq:f5));
  Alcotest.(check (option reject)) "no verdict" None
    (Elasticity.classify det ~freq:f5);
  feed det (fun _ -> 1.);
  Alcotest.(check bool) "ready" true (Elasticity.ready det)

let test_detector_elastic_signal () =
  let det = Elasticity.create () in
  feed det (fun t -> 24e6 +. (4e6 *. sin (2. *. pi *. 5. *. t)));
  Alcotest.(check bool) "high eta" true (Elasticity.eta det ~freq:f5 > 10.);
  Alcotest.(check (option (of_pp Fmt.nop))) "elastic"
    (Some Elasticity.Elastic)
    (Elasticity.classify det ~freq:f5)

let test_detector_inelastic_noise () =
  let rng = Rng.create 11 in
  let det = Elasticity.create () in
  feed det (fun _ -> 24e6 +. (4e6 *. (Rng.uniform rng -. 0.5)));
  Alcotest.(check (option (of_pp Fmt.nop))) "inelastic"
    (Some Elasticity.Inelastic)
    (Elasticity.classify det ~freq:f5)

let test_detector_off_frequency () =
  let det = Elasticity.create () in
  (* strong oscillation inside the comparison band, none at f_p *)
  feed det (fun t -> 24e6 +. (4e6 *. sin (2. *. pi *. 7.4 *. t)));
  Alcotest.(check bool) "eta < 1" true (Elasticity.eta det ~freq:f5 < 1.)

let test_detector_handles_nan_samples () =
  let det = Elasticity.create () in
  for i = 0 to 499 do
    let t = float_of_int i *. 0.01 in
    Elasticity.add_sample det
      (if i mod 7 = 0 then nan else 24e6 +. (4e6 *. sin (2. *. pi *. 5. *. t)))
  done;
  Alcotest.(check bool) "still elastic despite gaps" true
    (Elasticity.eta det ~freq:f5 > 2.)

let test_detector_sliding () =
  (* after a full window of noise, an elastic signal must flip the verdict
     within roughly one window *)
  let rng = Rng.create 12 in
  let det = Elasticity.create () in
  feed det (fun _ -> 24e6 +. (2e6 *. (Rng.uniform rng -. 0.5)));
  Alcotest.(check (option (of_pp Fmt.nop))) "starts inelastic"
    (Some Elasticity.Inelastic)
    (Elasticity.classify det ~freq:f5);
  feed det (fun t -> 24e6 +. (6e6 *. sin (2. *. pi *. 5. *. t)));
  Alcotest.(check (option (of_pp Fmt.nop))) "flips to elastic"
    (Some Elasticity.Elastic)
    (Elasticity.classify det ~freq:f5)

let test_detector_spectrum_access () =
  let det = Elasticity.create () in
  feed det (fun t -> 10e6 *. sin (2. *. pi *. 5. *. t));
  match Elasticity.spectrum det with
  | None -> Alcotest.fail "spectrum missing"
  | Some s ->
    let f, _ = Nimbus_dsp.Spectrum.dominant s ~above:1. in
    check_close "dominant at 5Hz" 5. f

let test_detector_oscillation_amplitude () =
  (* a sinusoid of amplitude 3e6 must be read back through the taper's
     coherent-gain inversion *)
  let det = Elasticity.create () in
  Alcotest.check_raises "no watch"
    (Invalid_argument "Elasticity: no watch configured") (fun () ->
      ignore (Elasticity.tone_oscillation det 0));
  Elasticity.watch det ~tones:[| f5 |] ~lo:(Freq.hz 6.8) ~hi:(Freq.hz 9.8);
  Alcotest.(check bool) "nan until ready" true
    (Float.is_nan (Elasticity.tone_oscillation det 0));
  feed det (fun t -> 24e6 +. (3e6 *. sin (2. *. pi *. 5. *. t)));
  let a = Elasticity.tone_oscillation det 0 in
  if Float.abs (a -. 3e6) > 0.15e6 then
    Alcotest.failf "amplitude %.3g != 3e6" a

let test_detector_validation () =
  Alcotest.(check bool) "window not longer than a sample" true
    (try ignore (Elasticity.create ~window:(Time.ms 10.) ()); false
     with Invalid_argument _ -> true)

(* --- streaming eta vs the one-shot FFT reference -------------------------- *)

let eta_agrees streaming reference =
  match Float.classify_float reference with
  | FP_nan -> Float.is_nan streaming
  | FP_infinite -> Float.equal streaming reference
  | _ ->
    Float.abs (streaming -. reference)
    <= 1e-6 *. Float.max 1. (Float.abs reference)

let prop_eta_streaming_agrees =
  (* the tentpole's agreement contract: across random window sizes, pulse
     frequencies, and signal contents, the sliding-bank η tracks the FFT η
     as the window keeps sliding after the initial tune *)
  QCheck.Test.make ~count:25
    ~name:"elasticity: streaming eta = FFT eta over random windows/freqs"
    QCheck.(triple (int_range 0 100_000) (int_range 2 8) (int_range 50 150))
    (fun (seed, fi, nwin) ->
      let rng = Rng.create seed in
      let freq_hz = float_of_int fi /. 2. in
      let freq = Freq.hz freq_hz in
      let det =
        Elasticity.create ~window:(Time.secs (float_of_int nwin *. 0.01)) ()
      in
      let idx = ref 0 in
      let push () =
        let t = float_of_int !idx *. 0.01 in
        incr idx;
        Elasticity.add_sample det
          (24e6
          +. (4e6 *. sin (2. *. pi *. freq_hz *. t))
          +. (1e6 *. Rng.range rng ~lo:(-1.) ~hi:1.))
      in
      for _ = 1 to nwin do
        push ()
      done;
      (* the first evaluation is the FFT fallback and tunes the bank *)
      let ok =
        ref (eta_agrees (Elasticity.eta det ~freq)
               (Elasticity.eta_reference det ~freq))
      in
      for _ = 1 to 10 do
        for _ = 1 to 7 do
          push ()
        done;
        if
          not
            (eta_agrees (Elasticity.eta det ~freq)
               (Elasticity.eta_reference det ~freq))
        then ok := false
      done;
      !ok)

let test_eta_retune_on_freq_change () =
  (* a pulse-frequency change (mode transition) must answer from the FFT
     fallback — exactly the reference — then stream at the new frequency *)
  let det = Elasticity.create () in
  let idx = ref 0 in
  let push_n n =
    for _ = 1 to n do
      let t = float_of_int !idx *. 0.01 in
      incr idx;
      Elasticity.add_sample det (24e6 +. (4e6 *. sin (2. *. pi *. 5. *. t)))
    done
  in
  push_n 500;
  let r5 = Elasticity.eta_reference det ~freq:f5 in
  let e5 = Elasticity.eta det ~freq:f5 in
  Alcotest.(check bool) "first call equals reference" true (Float.equal e5 r5);
  push_n 30;
  Alcotest.(check bool) "streams at 5 Hz" true
    (eta_agrees (Elasticity.eta det ~freq:f5)
       (Elasticity.eta_reference det ~freq:f5));
  let f6 = Freq.hz 6.25 in
  let r6 = Elasticity.eta_reference det ~freq:f6 in
  let e6 = Elasticity.eta det ~freq:f6 in
  Alcotest.(check bool) "fallback equals reference at new freq" true
    (Float.equal e6 r6);
  push_n 30;
  Alcotest.(check bool) "streams at new freq" true
    (eta_agrees (Elasticity.eta det ~freq:f6)
       (Elasticity.eta_reference det ~freq:f6))

let test_eta_streaming_long_run () =
  (* n = 500, so 5000 pushes cross the 8n = 4000-push resync; the streaming
     η must stay glued to the reference throughout *)
  let rng = Rng.create 21 in
  let det = Elasticity.create () in
  let idx = ref 0 in
  let push_n n =
    for _ = 1 to n do
      let t = float_of_int !idx *. 0.01 in
      incr idx;
      Elasticity.add_sample det
        (24e6
        +. (4e6 *. sin (2. *. pi *. 5. *. t))
        +. (2e6 *. Rng.range rng ~lo:(-1.) ~hi:1.))
    done
  in
  push_n 500;
  ignore (Elasticity.eta det ~freq:f5);
  for _ = 1 to 9 do
    push_n 500;
    Alcotest.(check bool) "agrees" true
      (eta_agrees (Elasticity.eta det ~freq:f5)
         (Elasticity.eta_reference det ~freq:f5))
  done

(* --- watcher bank vs the spectrum it replaces ----------------------------- *)

(* relative agreement, floored at a scale below which both paths are
   rounding noise *)
let agrees ~floor expect got =
  Float.abs (expect -. got) <= 1e-9 *. Float.max floor (Float.abs expect)

(* every watcher readout of [det] against [Elasticity.spectrum] +
   [Spectrum.band_max] + coherent-gain inversion *)
let watch_agrees det ~taper ~n ~tones ~lo ~hi ~floor =
  match Elasticity.spectrum det with
  | None -> false
  | Some s ->
    let cg = Nimbus_dsp.Window.coherent_gain taper n in
    let tones_ok =
      List.for_all
        (fun (i, f) ->
          let amp = Nimbus_dsp.Spectrum.amplitude_at s f in
          agrees ~floor amp (Elasticity.tone_amplitude det i)
          && agrees ~floor:(floor /. float_of_int n)
               (2. *. amp /. (float_of_int n *. cg))
               (Elasticity.tone_oscillation det i))
        (List.mapi (fun i f -> (i, f)) tones)
    in
    tones_ok
    && agrees ~floor
         (Nimbus_dsp.Spectrum.band_max s ~lo ~hi)
         (Elasticity.watch_reference det)

let prop_watch_agrees =
  QCheck.Test.make ~count:40
    ~name:"elasticity: watcher bank = spectrum readouts"
    QCheck.(
      pair
        (triple (int_range 0 100_000) (int_range 40 160) (int_range 0 1))
        (pair (int_range 4 16) (int_range 4 16)))
    (fun ((seed, n, ti), (c2, d2)) ->
      let taper =
        [| Nimbus_dsp.Window.Rectangular; Nimbus_dsp.Window.Hann |].(ti)
      in
      let fc = float_of_int c2 /. 2. and fd = float_of_int d2 /. 2. in
      let lo = Float.max fc fd +. 0.8 and hi = (2. *. Float.min fc fd) -. 0.2 in
      let det =
        Elasticity.create ~window:(Time.secs (float_of_int n *. 0.01)) ~taper ()
      in
      Elasticity.watch det ~tones:[| Freq.hz fc; Freq.hz fd |] ~lo:(Freq.hz lo)
        ~hi:(Freq.hz hi);
      let rng = Rng.create seed in
      let idx = ref 0 in
      let push () =
        let t = float_of_int !idx *. 0.01 in
        incr idx;
        Elasticity.add_sample det
          (24e6 +. (1e5 *. t)
          +. (4e6 *. sin (2. *. pi *. fc *. t))
          +. (1e6 *. Rng.range rng ~lo:(-1.) ~hi:1.))
      in
      let floor = float_of_int n *. 1e6 in
      for _ = 1 to n do
        push ()
      done;
      (* the first read builds the bank; the later ones stream, the last
         past the 8n-push resync *)
      let ok = ref (watch_agrees det ~taper ~n ~tones:[ fc; fd ] ~lo ~hi ~floor) in
      for _ = 1 to 9 do
        for _ = 1 to n + Rng.int rng 7 do
          push ()
        done;
        if not (watch_agrees det ~taper ~n ~tones:[ fc; fd ] ~lo ~hi ~floor)
        then ok := false
      done;
      !ok)

let test_watch_band_edge () =
  (* the default reference band opens at 5 + 1 + 0.8 = 6.8 Hz, bin 34 of
     the 0.2 Hz grid; in floats 34 * 0.2 > 6.8, so the FFT path counts bin
     34 inside the open band and the bank must too *)
  Alcotest.(check bool) "34 * 0.2 > 6.8" true (34. *. 0.2 > 6.8);
  let det = Elasticity.create () in
  Elasticity.watch det ~tones:[| f5; Freq.hz 6. |] ~lo:(Freq.hz 6.8)
    ~hi:(Freq.hz 9.8);
  feed det (fun t -> 24e6 +. (4e6 *. sin (2. *. pi *. 6.8 *. t)));
  match Elasticity.spectrum det with
  | None -> Alcotest.fail "spectrum missing"
  | Some s ->
    let edge = s.Nimbus_dsp.Spectrum.amplitudes.(34) in
    Alcotest.(check bool) "6.8 Hz dominates the band" true
      (Float.equal edge (Nimbus_dsp.Spectrum.band_max s ~lo:6.8 ~hi:9.8));
    check_close ~eps:(1e-9 *. edge) "bank reference includes bin 34" edge
      (Elasticity.watch_reference det)

(* --- allocation ----------------------------------------------------------- *)

(* mean minor words per call of [f], after one warm-up call *)
let words_per ~runs f =
  f ();
  let w0 = Gc.minor_words () in
  for _ = 1 to runs do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int runs

(* a multi-flow Nimbus that never elects itself, hearing a 5 Hz pulser in
   its receive rate, run past one window so each further tick is steady *)
let steady_watcher ~window =
  let nim =
    Nimbus.create
      { (Nimbus.Config.default ~mu:(Z_estimator.Mu.known (Rate.mbps 96.))) with
        multi_flow = true; kappa = 0.; fft_window = Time.secs window }
  in
  let now = ref 0. in
  let cc = Nimbus.cc nim ~now:(fun () -> Time.secs !now) in
  let tick = Option.get cc.Nimbus_cc.Cc_types.on_tick in
  let step () =
    now := !now +. 0.01;
    tick
      { Nimbus_cc.Cc_types.now = Time.secs !now; send_rate = Rate.bps 48e6;
        recv_rate = Rate.bps (30e6 +. (6e6 *. sin (2. *. pi *. 5. *. !now)));
        rtt = Time.ms 55.; srtt = Time.ms 55.; min_rtt = Time.ms 50.;
        inflight_bytes = 300_000; delivered_bytes = 0; lost_packets = 0 }
  in
  for _ = 1 to int_of_float (window *. 100.) + 100 do
    step ()
  done;
  (nim, step)

let test_watcher_tick_words () =
  let nim, step = steady_watcher ~window:5. in
  let words = words_per ~runs:1000 step in
  Alcotest.(check string) "still a watcher" "watcher"
    (Nimbus.role_to_string (Nimbus.role nim));
  if words >= 100. then
    Alcotest.failf "steady watcher tick allocates %.1f minor words" words;
  let _, short = steady_watcher ~window:2. in
  check_close "independent of the window length" words
    (words_per ~runs:1000 short)

let test_eta_read_words () =
  let det = Elasticity.create () in
  feed det (fun t -> 24e6 +. (4e6 *. sin (2. *. pi *. 5. *. t)));
  ignore (Elasticity.eta det ~freq:f5);
  let words =
    words_per ~runs:1000 (fun () -> ignore (Elasticity.eta det ~freq:f5))
  in
  if words > 4. then
    Alcotest.failf "steady eta read allocates %.1f minor words" words

(* detectors hold no FFT state: a fresh one is its sample ring and little
   else, and a default Nimbus (two detectors) stays small too *)
let test_detector_retains_little () =
  let words = Obj.reachable_words (Obj.repr (Elasticity.create ())) in
  if words > 1_000 then
    Alcotest.failf "fresh detector retains %d words" words

let test_nimbus_retains_little () =
  let nim =
    Nimbus.create
      (Nimbus.Config.default ~mu:(Z_estimator.Mu.known (Rate.mbps 96.)))
  in
  let words = Obj.reachable_words (Obj.repr nim) in
  if words > 4_000 then Alcotest.failf "fresh Nimbus retains %d words" words

(* Words [f] allocates straight on the major heap: every major word that
   was not promoted from the minor heap.  A block over [Max_young_wosize]
   (256 words) goes there directly, and doing so during a flow's set-up can
   run a major slice the previous run left pending. *)
let direct_major_words f =
  let _, p0, m0 = Gc.counters () in
  let x = f () in
  let _, p1, m1 = Gc.counters () in
  ignore (Sys.opaque_identity x);
  m1 -. m0 -. (p1 -. p0)

(* Nimbus.create builds every detector ring, bank and table below that
   size: the three 500-sample rings (1503 words) are allocated at their
   first push, inside the run. *)
let test_nimbus_create_stays_minor () =
  let mu = Z_estimator.Mu.known (Rate.mbps 96.) in
  List.iter
    (fun multi_flow ->
      let words =
        direct_major_words (fun () ->
            Nimbus.create { (Nimbus.Config.default ~mu) with multi_flow })
      in
      if not (Float.equal words 0.) then
        Alcotest.failf "Nimbus.create (multi_flow %b): %.0f direct major words"
          multi_flow words)
    [ false; true ]

let test_mode_frequency_must_be_probe_bin () =
  let mu = Z_estimator.Mu.known (Rate.mbps 96.) in
  (* the 1 s keep-alive window resolves whole hertz *)
  Alcotest.(check bool) "5.5 Hz rejected" true
    (try
       ignore
         (Nimbus.create
            { (Nimbus.Config.default ~mu) with fp_competitive = Freq.hz 5.5 });
       false
     with Invalid_argument _ -> true);
  ignore
    (Nimbus.create
       { (Nimbus.Config.default ~mu) with fp_competitive = Freq.hz 2. })

(* --- nimbus closed loop --------------------------------------------------- *)

let make_link ?(rate_bps = 48e6) () =
  let e = Engine.create Engine.Config.default in
  let topo, route =
    Topology.dumbbell e
      (Topology.Link.Config.default ~rate:(Rate.bps rate_bps)
         ~qdisc:
           (Qdisc.droptail
              ~capacity_bytes:(int_of_float (rate_bps *. 0.1 /. 8.))))
  in
  (e, Topology.link_bottleneck (List.hd (Topology.links topo)), topo, route)

let start_nimbus ?(multi_flow = false) ?(seed = 1) topo ~route ~mu =
  let nim =
    Nimbus.create
      { (Nimbus.Config.default ~mu:(Z_estimator.Mu.known (Rate.bps mu))) with
        multi_flow; seed }
  in
  let flow =
    Flow.create_via topo ~route
      ~cc:(Nimbus.cc nim ~now:(fun () -> Engine.now (Topology.engine topo)))
      ~prop_rtt:(Time.ms 50.) ()
  in
  (nim, flow)

let test_nimbus_solo_delay_mode () =
  let e, bn, topo, route = make_link () in
  let nim, flow = start_nimbus topo ~route ~mu:48e6 in
  Engine.run_until e (Time.secs 30.);
  Alcotest.(check string) "delay mode" "delay"
    (Nimbus.mode_to_string (Nimbus.mode nim));
  Alcotest.(check bool) "fills link" true
    (float_of_int (Flow.received_bytes flow * 8) /. 30. > 0.9 *. 48e6);
  Alcotest.(check bool) "short queue" true
    (Time.to_secs (Bottleneck.queue_delay bn) < 0.03)

let test_nimbus_detects_cubic () =
  let e, _, topo, route = make_link () in
  let nim, flow = start_nimbus topo ~route ~mu:48e6 in
  ignore
    (Flow.create_via topo ~route ~cc:(Nimbus_cc.Cubic.make ())
       ~prop_rtt:(Time.ms 50.) ());
  let competitive = ref 0 and samples = ref 0 in
  Engine.every e ~dt:(Time.ms 100.) ~start:(Time.secs 10.)
    ~until:(Time.secs 60.) (fun () ->
      incr samples;
      if Nimbus.mode nim = Nimbus.Competitive then incr competitive);
  Engine.run_until e (Time.secs 60.);
  let frac = float_of_int !competitive /. float_of_int !samples in
  Alcotest.(check bool) "mostly competitive" true (frac > 0.8);
  Alcotest.(check bool) "gets a useful share" true
    (float_of_int (Flow.received_bytes flow * 8) /. 60. > 0.25 *. 48e6)

let test_nimbus_stays_delay_on_poisson () =
  let e, _, topo, route = make_link () in
  let nim, flow = start_nimbus topo ~route ~mu:48e6 in
  ignore
    (Nimbus_traffic.Source.poisson_via topo ~route ~rng:(Rng.create 5)
       ~rate:(Rate.bps 24e6) ());
  let delay = ref 0 and samples = ref 0 in
  Engine.every e ~dt:(Time.ms 100.) ~start:(Time.secs 10.)
    ~until:(Time.secs 60.) (fun () ->
      incr samples;
      if Nimbus.mode nim = Nimbus.Delay then incr delay);
  Engine.run_until e (Time.secs 60.);
  Alcotest.(check bool) "mostly delay mode" true
    (float_of_int !delay /. float_of_int !samples > 0.9);
  let tput = float_of_int (Flow.received_bytes flow * 8) /. 60. in
  Alcotest.(check bool) "takes the residual fair share" true (tput > 0.85 *. 24e6)

let test_nimbus_mode_transition () =
  (* cubic joins at t=20: nimbus must be competitive within ~10 s *)
  let e, _, topo, route = make_link () in
  let nim, _ = start_nimbus topo ~route ~mu:48e6 in
  Engine.schedule_at e (Time.secs 20.) (fun () ->
      ignore
        (Flow.create_via topo ~route ~cc:(Nimbus_cc.Cubic.make ())
           ~prop_rtt:(Time.ms 50.) ()));
  Engine.run_until e (Time.secs 19.);
  Alcotest.(check string) "delay before" "delay"
    (Nimbus.mode_to_string (Nimbus.mode nim));
  Engine.run_until e (Time.secs 32.);
  Alcotest.(check string) "competitive after" "competitive"
    (Nimbus.mode_to_string (Nimbus.mode nim))

(* An ACK in competitive mode goes straight to the inner Cubic's hook: no
   per-ACK controller record or closures on top of Cubic's own update, which
   allocates 2 words (a fresh record and its closures made it 23). *)
let test_nimbus_competitive_ack_words () =
  let e, _, topo, route = make_link () in
  let nim, _ = start_nimbus topo ~route ~mu:48e6 in
  ignore
    (Flow.create_via topo ~route ~cc:(Nimbus_cc.Cubic.make ())
       ~prop_rtt:(Time.ms 50.) ());
  Engine.run_until e (Time.secs 20.);
  Alcotest.(check string) "competitive" "competitive"
    (Nimbus.mode_to_string (Nimbus.mode nim));
  let cc = Nimbus.cc nim ~now:(fun () -> Engine.now e) in
  let ack =
    { Nimbus_cc.Cc_types.times =
        { now = Engine.now e; rtt = Time.ms 55.; min_rtt = Time.ms 50.;
          srtt = Time.ms 55. };
      seq = 0; bytes = 1500; inflight_bytes = 300_000; delivered_bytes = 0 }
  in
  let words = words_per ~runs:1000 (fun () -> cc.on_ack ack) in
  if words > 4. then
    Alcotest.failf "competitive on_ack allocates %.1f minor words" words

(* The control path allocates little per packet: 4 multi-flow Nimbus flows
   (watchers that elect a pulser) and 16 Mbit/s Poisson on a 96 Mbit/s,
   50 ms dumbbell for 15 s.  A watcher answers [cwnd] and [pacing_rate]
   from boxes refreshed once per tick, and a paced flow asks for the rate
   once per pacer wake, not per ACK.  Minor words per packet delivered at
   the link from 6 s on: 3.96 measured; 9.11 when every packet was a
   5-word record, and 20.97 when every ACK asked for a freshly computed
   rate and a watcher tick boxed each level it read. *)
let test_nimbus_watcher_words_per_packet () =
  let e, bn, topo, route = make_link ~rate_bps:96e6 () in
  let rng = Rng.create 1 in
  for k = 0 to 3 do
    let nim =
      Nimbus.create
        { (Nimbus.Config.default ~mu:(Z_estimator.Mu.known (Rate.mbps 96.)))
          with multi_flow = true; seed = 1009 + k }
    in
    ignore
      (Flow.create_via topo ~route
         ~cc:(Nimbus.cc nim ~now:(fun () -> Engine.now e))
         ~prop_rtt:(Time.ms 50.)
         ~start:(Time.ms (float_of_int (k * 100)))
         ())
  done;
  ignore
    (Nimbus_traffic.Source.poisson_via topo ~route
       ~rng:(Rng.split rng) ~rate:(Rate.mbps 16.) ());
  (* ramp-up first: every ring, table and bank is built by then *)
  Engine.run_until e (Time.secs 6.);
  let pkts0 = Bottleneck.delivered_packets bn in
  let before = Gc.minor_words () in
  Engine.run_until e (Time.secs 15.);
  let words = Gc.minor_words () -. before in
  let pkts = Bottleneck.delivered_packets bn - pkts0 in
  Alcotest.(check bool) "the link carried ~9 s of packets" true
    (pkts > 50_000);
  let per_pkt = words /. float_of_int pkts in
  if per_pkt > 4.5 then
    Alcotest.failf "%.2f minor words per packet (want <= 4.5)" per_pkt

let test_nimbus_single_flow_is_pulser () =
  let e, _, topo, route = make_link () in
  let nim, _ = start_nimbus topo ~route ~mu:48e6 in
  Engine.run_until e (Time.secs 1.);
  Alcotest.(check string) "pulser" "pulser"
    (Nimbus.role_to_string (Nimbus.role nim));
  Alcotest.(check bool) "pulses at 5Hz" true
    (Float.equal (Freq.to_hz (Nimbus.pulse_freq nim)) 5.)

let test_nimbus_multiflow_election () =
  (* two multi-flow Nimbus flows: exactly one should end up pulsing, and
     both should sit in delay mode with a short queue *)
  let e, _, topo, route = make_link ~rate_bps:96e6 () in
  let nim1, f1 = start_nimbus ~multi_flow:true ~seed:21 topo ~route ~mu:96e6 in
  let nim2, f2 = start_nimbus ~multi_flow:true ~seed:77 topo ~route ~mu:96e6 in
  Engine.run_until e (Time.secs 60.);
  let pulsers =
    List.length
      (List.filter
         (fun n -> Nimbus.role n = Nimbus.Pulser)
         [ nim1; nim2 ])
  in
  Alcotest.(check int) "exactly one pulser" 1 pulsers;
  let t1 = float_of_int (Flow.received_bytes f1 * 8) /. 60. in
  let t2 = float_of_int (Flow.received_bytes f2 * 8) /. 60. in
  Alcotest.(check bool) "both flows get real throughput" true
    (Float.min t1 t2 > 0.2 *. 96e6);
  Alcotest.(check bool) "high combined utilization" true
    (t1 +. t2 > 0.8 *. 96e6)

let test_nimbus_base_rate_positive () =
  let e, _, topo, route = make_link () in
  let nim, _ = start_nimbus topo ~route ~mu:48e6 in
  Engine.run_until e (Time.secs 10.);
  Alcotest.(check bool) "positive base rate" true
    (Rate.to_bps (Nimbus.base_rate nim) > 0.)

(* --- property tests -------------------------------------------------------- *)

let prop_pulse_bounded =
  QCheck.Test.make ~count:200 ~name:"pulse: |value| <= amplitude, any phase"
    QCheck.(triple (float_range 1e3 1e8) (float_range 0.5 20.) (float_range (-10.) 10.))
    (fun (amplitude, freq, t) ->
      let v =
        Rate.to_bps
          (Pulse.value ~shape:Pulse.Asymmetric ~amplitude:(Rate.bps amplitude)
             ~freq:(Freq.hz freq) (Time.secs t))
      in
      Float.abs v <= amplitude +. 1e-6)

let prop_pulse_value_to =
  QCheck.Test.make ~count:200 ~name:"pulse: value_to writes value's bits"
    QCheck.(
      quad bool (float_range 0. 1e8) (float_range 0.5 20.)
        (float_range (-10.) 10.))
    (fun (asym, amplitude, freq, t) ->
      let shape = if asym then Pulse.Asymmetric else Pulse.Symmetric in
      let amplitude = Rate.bps amplitude and freq = Freq.hz freq in
      let t = Time.secs t in
      let dst = Float.Array.make 3 nan in
      Pulse.value_to ~shape ~amplitude ~freq t dst 2;
      Int64.equal
        (Int64.bits_of_float (Float.Array.get dst 2))
        (Int64.bits_of_float
           (Rate.to_bps (Pulse.value ~shape ~amplitude ~freq t))))

let prop_pulse_zero_mean =
  QCheck.Test.make ~count:50 ~name:"pulse: zero mean for any amplitude/freq"
    QCheck.(pair (float_range 1e3 1e8) (float_range 0.5 20.))
    (fun (amplitude, freq) ->
      let m =
        Rate.to_bps
          (Pulse.mean ~shape:Pulse.Asymmetric ~amplitude:(Rate.bps amplitude)
             ~freq:(Freq.hz freq) ~samples:4000)
      in
      Float.abs m < amplitude *. 2e-3)

let prop_z_estimate_clamped =
  QCheck.Test.make ~count:200 ~name:"z: estimate always within [0, mu]"
    QCheck.(triple (float_range 1e6 1e9) (float_range 1e3 1e9) (float_range 1e3 1e9))
    (fun (mu, s, r) ->
      let z = estimate ~mu ~send_rate:s ~recv_rate:r in
      z >= 0. && z <= mu)

let prop_z_estimate_inverts =
  (* construct R from (mu, S, z) via the busy-link identity and recover z *)
  QCheck.Test.make ~count:200 ~name:"z: inverts the FIFO share identity"
    QCheck.(pair (float_range 1e6 9e7) (float_range 1e5 9e7))
    (fun (s, z) ->
      let mu = 1e8 in
      QCheck.assume (s +. z > mu);
      let r = mu *. s /. (s +. z) in
      let zhat = estimate ~mu ~send_rate:s ~recv_rate:r in
      Float.abs (zhat -. z) < 1e-3 *. z +. 1.)

let prop_detector_sinusoid_always_elastic =
  QCheck.Test.make ~count:30
    ~name:"elasticity: clean on-bin sinusoid is always elastic"
    QCheck.(pair (float_range 1e6 2e7) (float_range 0. 6.28))
    (fun (amp, phase) ->
      let det = Elasticity.create () in
      for i = 0 to 499 do
        let t = float_of_int i *. 0.01 in
        Elasticity.add_sample det
          (3e7 +. (amp *. sin ((2. *. pi *. 5. *. t) +. phase)))
      done;
      Elasticity.classify det ~freq:f5 = Some Elasticity.Elastic)

let qtest = QCheck_alcotest.to_alcotest

let suite =
  [ ( "core.pulse",
      [ Alcotest.test_case "zero mean" `Quick test_pulse_zero_mean;
        Alcotest.test_case "asymmetric profile" `Quick
          test_pulse_asymmetric_profile;
        Alcotest.test_case "min send rate" `Quick test_pulse_min_send_rate;
        Alcotest.test_case "validation" `Quick test_pulse_validation;
        qtest prop_pulse_bounded;
        qtest prop_pulse_zero_mean;
        qtest prop_pulse_value_to ] );
    ( "core.z_estimator",
      [ Alcotest.test_case "exact" `Quick test_z_estimator_exact;
        Alcotest.test_case "clamps" `Quick test_z_estimator_clamps;
        Alcotest.test_case "nan handling" `Quick test_z_estimator_nan;
        Alcotest.test_case "mu known" `Quick test_mu_known;
        Alcotest.test_case "mu estimator" `Quick test_mu_estimator_tracks_max;
        Alcotest.test_case "mu ignores non-finite" `Quick
          test_mu_estimator_ignores_non_finite;
        qtest prop_z_estimate_clamped;
        qtest prop_z_estimate_inverts ] );
    ( "core.elasticity",
      [ Alcotest.test_case "needs full window" `Quick
          test_detector_needs_full_window;
        Alcotest.test_case "elastic signal" `Quick test_detector_elastic_signal;
        Alcotest.test_case "inelastic noise" `Quick
          test_detector_inelastic_noise;
        Alcotest.test_case "off-frequency" `Quick test_detector_off_frequency;
        Alcotest.test_case "nan samples" `Quick
          test_detector_handles_nan_samples;
        Alcotest.test_case "sliding verdict" `Quick test_detector_sliding;
        Alcotest.test_case "spectrum access" `Quick
          test_detector_spectrum_access;
        Alcotest.test_case "oscillation amplitude" `Quick
          test_detector_oscillation_amplitude;
        Alcotest.test_case "validation" `Quick test_detector_validation;
        Alcotest.test_case "retune on freq change" `Quick
          test_eta_retune_on_freq_change;
        Alcotest.test_case "streaming long run" `Quick
          test_eta_streaming_long_run;
        Alcotest.test_case "watcher band edge" `Quick test_watch_band_edge;
        Alcotest.test_case "steady eta read words" `Quick test_eta_read_words;
        Alcotest.test_case "fresh detector retains little" `Quick
          test_detector_retains_little;
        qtest prop_watch_agrees;
        qtest prop_detector_sinusoid_always_elastic;
        qtest prop_eta_streaming_agrees ] );
    ( "core.nimbus",
      [ Alcotest.test_case "solo delay mode" `Quick test_nimbus_solo_delay_mode;
        Alcotest.test_case "detects cubic" `Quick test_nimbus_detects_cubic;
        Alcotest.test_case "stays delay on poisson" `Quick
          test_nimbus_stays_delay_on_poisson;
        Alcotest.test_case "mode transition" `Quick test_nimbus_mode_transition;
        Alcotest.test_case "single flow pulses" `Quick
          test_nimbus_single_flow_is_pulser;
        Alcotest.test_case "multiflow election" `Quick
          test_nimbus_multiflow_election;
        Alcotest.test_case "base rate positive" `Quick
          test_nimbus_base_rate_positive;
        Alcotest.test_case "create stays off the major heap" `Quick
          test_nimbus_create_stays_minor;
        Alcotest.test_case "steady watcher tick words" `Quick
          test_watcher_tick_words;
        Alcotest.test_case "competitive ack words" `Quick
          test_nimbus_competitive_ack_words;
        Alcotest.test_case "fresh Nimbus retains little" `Quick
          test_nimbus_retains_little;
        Alcotest.test_case "watcher dumbbell words per packet" `Quick
          test_nimbus_watcher_words_per_packet;
        Alcotest.test_case "mode frequency is a probe bin" `Quick
          test_mode_frequency_must_be_probe_bin ] ) ]
