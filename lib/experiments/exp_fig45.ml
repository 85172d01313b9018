(* Fig. 4 + Fig. 5: the mechanism itself.  A pulsing Nimbus sender shares the
   link with either one long-running Cubic flow (elastic) or a constant-rate
   stream (inelastic).

   Fig. 4: the elastic cross traffic's estimated rate ẑ(t) reacts to the
   pulses one cross-RTT later (negative lagged correlation with S); the
   inelastic stream is oblivious.

   Fig. 5: the FFT of ẑ shows a pronounced peak at f_p only for elastic
   cross traffic. *)

module Engine = Nimbus_sim.Engine
module Flow = Nimbus_cc.Flow
module Nimbus = Nimbus_core.Nimbus
module Z = Nimbus_core.Z_estimator
module Source = Nimbus_traffic.Source
module Stats = Nimbus_dsp.Stats
module Spectrum = Nimbus_dsp.Spectrum
module Time = Units.Time
module Rate = Units.Rate
module Freq = Units.Freq

let id = "fig45"

let title = "Fig 4/5: cross-traffic reaction to pulses, time and frequency domain"

type capture = {
  s_samples : float list ref;
  z_samples : float list ref;
}

let run_case (p : Common.profile) ~elastic =
  let l = Common.link ~mbps:96. ~rtt_ms:50. ~buffer_bdp:2.0 () in
  let horizon = Common.scaled p 60. in
  let net = Common.setup ~seed:45 l in
  let { Common.engine; topo; route; rng; _ } = net in
  let cap = { s_samples = ref []; z_samples = ref [] } in
  let collect_from = horizon -. 10. in
  let nim =
    Nimbus.create
      { (Nimbus.Config.default ~mu:(Z.Mu.known l.Common.mu)) with
        on_sample =
          Some
            (fun s ->
              if Time.(s.Nimbus.s_time >= secs collect_from) then begin
                cap.s_samples :=
                  Rate.to_bps s.Nimbus.s_send_rate :: !(cap.s_samples);
                cap.z_samples := Rate.to_bps s.Nimbus.s_z :: !(cap.z_samples)
              end) }
  in
  ignore
    (Flow.create_via topo ~route
       ~cc:(Nimbus.cc nim ~now:(fun () -> Engine.now engine))
       ~prop_rtt:l.Common.prop_rtt ());
  if elastic then
    ignore
      (Flow.create_via topo ~route ~cc:(Nimbus_cc.Cubic.make ())
         ~prop_rtt:l.Common.prop_rtt ())
  else
    ignore (Source.cbr_via topo ~route ~rate:(Rate.bps 48e6) ());
  ignore rng;
  Engine.run_until engine (Time.secs horizon);
  let arr r = Array.of_list (List.rev !r) in
  let s = arr cap.s_samples and z = arr cap.z_samples in
  let z = Array.map (fun x -> if Float.is_nan x then 0. else x) z in
  (* lag sweep: 0 .. 2 RTT in 10 ms steps *)
  let max_lag = int_of_float (2. *. Time.to_secs l.Common.prop_rtt /. 0.01) in
  let corr = Stats.cross_correlation s z ~max_lag in
  let min_corr = Array.fold_left Float.min corr.(0) corr in
  let min_lag =
    let best = ref 0 in
    Array.iteri (fun i c -> if c = min_corr then best := i) corr;
    float_of_int !best *. 0.01
  in
  let spectrum =
    Spectrum.analyze ~detrend:`Linear ~sample_rate:(Freq.hz 100.) z
  in
  let eta = Nimbus.last_eta nim in
  (min_corr, min_lag, spectrum, eta)

let run (p : Common.profile) =
  let e_corr, e_lag, e_spec, e_eta = run_case p ~elastic:true in
  let i_corr, i_lag, i_spec, i_eta = run_case p ~elastic:false in
  let fig4 =
    Table.make ~title:"Fig 4: lagged correlation of S(t) against z(t + lag)"
      ~header:[ "cross traffic"; "min corr"; "at lag(ms)" ]
      ~notes:
        [ "shape: elastic cross traffic anti-correlates with the pulses \
           about one cross-RTT later; inelastic stays near zero" ]
      [ [ "elastic (Cubic)"; Table.fmt_float e_corr; Table.fmt_ms e_lag ];
        [ "inelastic (CBR)"; Table.fmt_float i_corr; Table.fmt_ms i_lag ] ]
  in
  let amp s f = Spectrum.amplitude_at s f /. 1e6 in
  let freqs = [ 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9. ] in
  let spec_row label s eta =
    label
    :: List.map (fun f -> Table.fmt_float ~digits:1 (amp s f)) freqs
    @ [ Table.fmt_float eta ]
  in
  let fig5 =
    Table.make ~title:"Fig 5: FFT amplitude of z(t) (Mbps-scale, by frequency)"
      ~header:
        ("cross traffic"
        :: List.map (fun f -> Printf.sprintf "%.0fHz" f) freqs
        @ [ "eta" ])
      ~notes:
        [ "shape: pronounced peak at f_p = 5 Hz only for elastic cross \
           traffic; eta >> 2 elastic, < 2 inelastic" ]
      [ spec_row "elastic (Cubic)" e_spec e_eta;
        spec_row "inelastic (CBR)" i_spec i_eta ]
  in
  [ fig4; fig5 ]
