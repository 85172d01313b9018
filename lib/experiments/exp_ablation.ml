(* Ablations of the design choices DESIGN.md calls out:
   1. Eq. 3's relative band rule vs an absolute peak threshold — the peak
      height scales with cross-traffic volume, so no single absolute cut
      separates elastic from inelastic across volumes; the ratio does.
   2. Asymmetric vs symmetric pulses at a small link share — the symmetric
      pulse's negative lobe clips when S < A, weakening the signal.
   3. FFT window duration — short windows false-alarm on inelastic noise,
      long windows detect slowly.
   4. Time-domain cross-correlation (the paper's rejected strawman) vs the
      FFT — the strawman needs the unknown cross RTT for alignment and
      degrades when it differs from the flow's.
   5. Rate reset on switching to competitive mode — without it, recovery
      from the detection-window squeeze is slow.
   6. Memoryless switching (paper rule) vs hysteresis.
   7. Rectangular vs Hann analysis taper. *)

module Engine = Nimbus_sim.Engine
module Rng = Nimbus_sim.Rng
module Flow = Nimbus_cc.Flow
module Nimbus = Nimbus_core.Nimbus
module Z = Nimbus_core.Z_estimator
module Source = Nimbus_traffic.Source
module Stats = Nimbus_dsp.Stats
module Accuracy = Nimbus_metrics.Accuracy
module Time = Units.Time
module Rate = Units.Rate

let id = "ablation"

let title = "Ablations of the detector/controller design choices"

(* shared runner: Nimbus vs configurable cross traffic, harvesting z samples,
   eta stream, mode stream *)
type obs = {
  etas : float array;
  peak_amps : float array; (* |FFT_z(fp)| at detections *)
  accuracy : float;
  z_samples : float array;
  s_samples : float array;
  tput_after : float; (* Mbps in a designated window *)
}

let observe (p : Common.profile) ?(share = 0.5) ?(pulse_shape = Nimbus_core.Pulse.Asymmetric)
    ?(fft_window = 5.) ?(switch_streak = 30) ?(rate_reset = true)
    ?(taper = Nimbus_dsp.Window.Hann) ~cross ~truth_elastic ~seed () =
  let l = Common.link ~mbps:96. ~rtt_ms:50. ~buffer_bdp:2.0 () in
  let horizon = Common.scaled p 90. in
  let net = Common.setup ~seed l in
  let { Common.engine; topo; route; rng; _ } = net in
  (match cross with
   | `Poisson rate ->
     ignore
       (Source.poisson_via topo ~route ~rng:(Rng.split rng)
          ~rate:(Rate.bps rate) ())
   | `Cubic n ->
     for _ = 1 to n do
       ignore
         (Flow.create_via topo ~route ~cc:(Nimbus_cc.Cubic.make ())
            ~prop_rtt:l.Common.prop_rtt ())
     done
   | `Cubic_rtt ratio ->
     ignore
       (Flow.create_via topo ~route ~cc:(Nimbus_cc.Cubic.make ())
          ~prop_rtt:(Time.scale ratio l.Common.prop_rtt) ())
   | `Cubic_late at ->
     Engine.schedule_at engine (Time.secs at) (fun () ->
         ignore
           (Flow.create_via topo ~route ~cc:(Nimbus_cc.Cubic.make ())
              ~prop_rtt:l.Common.prop_rtt ()))
   | `Mixed_for_share ->
     ignore
       (Source.poisson_via topo ~route ~rng:(Rng.split rng)
          ~rate:(Rate.scale (1. -. share) l.Common.mu) ()));
  let etas = ref [] and amps = ref [] in
  let zs = ref [] and ss = ref [] in
  let nim =
    Nimbus.create
      { (Nimbus.Config.default ~mu:(Z.Mu.known l.Common.mu)) with
        pulse_shape; fft_window = Time.secs fft_window; switch_streak;
        rate_reset; taper = Some taper; seed = seed + 1;
        on_detection =
          Some
            (fun d ->
              if not (Float.is_nan d.Nimbus.d_eta) then
                etas := d.Nimbus.d_eta :: !etas);
        on_sample =
          Some
            (fun s ->
              let z = Rate.to_bps s.Nimbus.s_z in
              zs := (if Float.is_nan z then 0. else z) :: !zs;
              ss := Rate.to_bps s.Nimbus.s_send_rate :: !ss) }
  in
  let flow =
    Flow.create_via topo ~route
      ~cc:(Nimbus.cc nim ~now:(fun () -> Engine.now engine))
      ~prop_rtt:l.Common.prop_rtt ()
  in
  Engine.every engine ~dt:(Time.ms 100.) ~start:(Time.secs 10.)
    ~until:(Time.secs horizon) (fun () ->
      amps :=
        Nimbus_core.Elasticity.peak_amplitude (Nimbus.detector nim)
          ~freq:(Nimbus.pulse_freq nim)
        :: !amps);
  let accuracy = Accuracy.create () in
  Engine.every engine ~dt:(Time.ms 100.) ~start:(Time.secs 10.)
    ~until:(Time.secs horizon) (fun () ->
      Accuracy.record accuracy
        ~predicted_elastic:(Nimbus.mode nim = Nimbus.Competitive)
        ~truth_elastic:(truth_elastic (Time.to_secs (Engine.now engine))));
  (* throughput over the last third *)
  let tput_lo = horizon *. 2. /. 3. in
  let bytes_at_lo = ref 0 in
  Engine.schedule_at engine (Time.secs tput_lo) (fun () ->
      bytes_at_lo := Flow.received_bytes flow);
  Engine.run_until engine (Time.secs horizon);
  let tput_after =
    float_of_int ((Flow.received_bytes flow - !bytes_at_lo) * 8)
    /. (horizon -. tput_lo) /. 1e6
  in
  { etas = Array.of_list !etas;
    peak_amps =
      Array.of_list (List.filter (fun a -> not (Float.is_nan a)) !amps);
    accuracy = Accuracy.accuracy accuracy;
    z_samples = Array.of_list (List.rev !zs);
    s_samples = Array.of_list (List.rev !ss);
    tput_after }

let always b _ = b

let median_or_nan a = if Array.length a = 0 then nan else Stats.median a

(* 1: relative vs absolute rule *)
let ablation_relative p =
  let run cross truth seed = observe p ~cross ~truth_elastic:(always truth) ~seed () in
  let cases =
    [ ("elastic, 1 cubic", run (`Cubic 1) true 41);
      ("elastic, 3 cubic", run (`Cubic 3) true 42);
      ("inelastic 24M", run (`Poisson 24e6) false 43);
      ("inelastic 72M", run (`Poisson 72e6) false 44) ]
  in
  Table.make
    ~title:"Ablation 1: Eq. 3 ratio vs absolute |FFT(fp)| threshold"
    ~header:[ "cross traffic"; "median |FFT(fp)| (Mbps)"; "median eta" ]
    ~notes:
      [ "shape: absolute peak heights of inelastic-72M overlap elastic \
         cases (volume-dependent), so no absolute threshold works; eta \
         separates cleanly" ]
    (List.map
       (fun (label, o) ->
         [ label;
           Table.fmt_float ~digits:1 (median_or_nan o.peak_amps /. 1e6);
           Table.fmt_float (median_or_nan o.etas) ])
       cases)

(* 2: pulse shape at small share *)
let ablation_shape p =
  let run shape seed =
    observe p ~share:0.125 ~pulse_shape:shape ~cross:`Mixed_for_share
      ~truth_elastic:(always false) ~seed ()
  in
  (* also against elastic cross traffic at low share *)
  let run_elastic shape seed =
    observe p ~pulse_shape:shape ~cross:(`Cubic 7)
      ~truth_elastic:(always true) ~seed ()
  in
  let a_i = run Nimbus_core.Pulse.Asymmetric 45 in
  let s_i = run Nimbus_core.Pulse.Symmetric 45 in
  let a_e = run_elastic Nimbus_core.Pulse.Asymmetric 46 in
  let s_e = run_elastic Nimbus_core.Pulse.Symmetric 46 in
  Table.make ~title:"Ablation 2: asymmetric vs symmetric pulse at small share"
    ~header:[ "pulse"; "acc inelastic(share 1/8)"; "acc elastic(share 1/8)" ]
    ~notes:
      [ "shape: the symmetric pulse clips when S < A = mu/4, degrading \
         detection at small shares; the asymmetric pulse only needs mu/12" ]
    [ [ "asymmetric"; Table.fmt_pct a_i.accuracy; Table.fmt_pct a_e.accuracy ];
      [ "symmetric"; Table.fmt_pct s_i.accuracy; Table.fmt_pct s_e.accuracy ] ]

(* 3: FFT window duration *)
let ablation_window p =
  let rows =
    List.map
      (fun w ->
        let inelastic =
          observe p ~fft_window:w ~cross:(`Poisson 48e6)
            ~truth_elastic:(always false) ~seed:47 ()
        in
        let arrival = 30. in
        let late =
          observe p ~fft_window:w ~cross:(`Cubic_late arrival)
            ~truth_elastic:(fun now -> now > arrival) ~seed:48 ()
        in
        [ Printf.sprintf "%.1f s" w;
          Table.fmt_pct inelastic.accuracy;
          Table.fmt_pct late.accuracy ])
      [ 2.5; 5.; 10. ]
  in
  Table.make ~title:"Ablation 3: FFT window duration"
    ~header:[ "window"; "acc pure inelastic"; "acc elastic arrival @30s" ]
    ~notes:
      [ "shape: short windows false-alarm on inelastic noise; long windows \
         react slowly to the elastic arrival; 5 s balances both" ]
    rows

(* 4: time-domain cross-correlation strawman *)
let xcorr_detects z s ~max_lag =
  if Array.length z < 100 then false
  else begin
    let s = Array.map (fun x -> if Float.is_nan x then 0. else x) s in
    let corr = Stats.cross_correlation s z ~max_lag in
    Array.exists (fun c -> Float.abs c > 0.25) corr
  end

let ablation_xcorr p =
  let rows =
    List.map
      (fun ratio ->
        let o =
          observe p ~cross:(`Cubic_rtt ratio) ~truth_elastic:(always true)
            ~seed:49 ()
        in
        (* strawman looks for correlation at lags up to 2x OWN rtt *)
        let n = Array.length o.z_samples in
        let tail k a = Array.sub a (max 0 (Array.length a - k)) (min k (Array.length a)) in
        let z = tail (min n 2000) o.z_samples in
        let s = tail (min n 2000) o.s_samples in
        let detected = xcorr_detects z s ~max_lag:20 in
        [ Table.fmt_float ~digits:1 ratio;
          (if detected then "elastic" else "inelastic");
          Table.fmt_pct o.accuracy ])
      [ 1.; 3. ]
  in
  Table.make
    ~title:"Ablation 4: time-domain cross-correlation strawman vs FFT"
    ~header:[ "cross RTT ratio"; "xcorr verdict"; "FFT detector accuracy" ]
    ~notes:
      [ "shape: the strawman needs S/z alignment at the (unknown) cross \
         RTT and degrades as it grows; the frequency-domain detector does \
         not" ]
    rows

(* 5/6: rate reset and hysteresis *)
let ablation_control p =
  let arrival = 30. in
  let run ~rate_reset ~switch_streak seed =
    observe p ~rate_reset ~switch_streak ~cross:(`Cubic_late arrival)
      ~truth_elastic:(fun now -> now > arrival) ~seed ()
  in
  let base = run ~rate_reset:true ~switch_streak:30 50 in
  let no_reset = run ~rate_reset:false ~switch_streak:30 50 in
  let memoryless = run ~rate_reset:true ~switch_streak:1 50 in
  Table.make ~title:"Ablation 5/6: rate reset and switching hysteresis"
    ~header:[ "variant"; "mode accuracy"; "tput last-third (Mbps)" ]
    ~notes:
      [ "shape: disabling the rate reset slows recovery after the \
         detection-window squeeze; memoryless switching (the paper's rule \
         verbatim) flaps under marginal eta and loses throughput" ]
    [ [ "reset + hysteresis (default)"; Table.fmt_pct base.accuracy;
        Table.fmt_float ~digits:1 base.tput_after ];
      [ "no rate reset"; Table.fmt_pct no_reset.accuracy;
        Table.fmt_float ~digits:1 no_reset.tput_after ];
      [ "memoryless switching"; Table.fmt_pct memoryless.accuracy;
        Table.fmt_float ~digits:1 memoryless.tput_after ] ]

(* 7: taper *)
let ablation_taper p =
  let run taper seed =
    ( observe p ~taper ~cross:(`Cubic 1) ~truth_elastic:(always true) ~seed (),
      observe p ~taper ~cross:(`Poisson 48e6) ~truth_elastic:(always false)
        ~seed () )
  in
  let h_e, h_i = run Nimbus_dsp.Window.Hann 51 in
  let r_e, r_i = run Nimbus_dsp.Window.Rectangular 51 in
  Table.make ~title:"Ablation 7: analysis taper (Hann vs rectangular)"
    ~header:[ "taper"; "acc elastic"; "acc inelastic"; "median eta elastic" ]
    ~notes:
      [ "shape: the rectangular window leaks the non-stationary pulse \
         harmonics into the comparison band, deflating eta on elastic \
         traffic" ]
    [ [ "hann"; Table.fmt_pct h_e.accuracy; Table.fmt_pct h_i.accuracy;
        Table.fmt_float (median_or_nan h_e.etas) ];
      [ "rectangular"; Table.fmt_pct r_e.accuracy; Table.fmt_pct r_i.accuracy;
        Table.fmt_float (median_or_nan r_e.etas) ] ]

let run (p : Common.profile) =
  [ ablation_relative p; ablation_shape p; ablation_window p;
    ablation_xcorr p; ablation_control p; ablation_taper p ]
