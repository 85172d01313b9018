(* Appendix F (Fig. 26): detecting non-ACK-clocked elastic traffic by slowing
   the pulse.  PCC-Vivace reacts on monitor-interval timescales, invisible to
   5 Hz pulses but visible at 2 Hz. *)

module Engine = Nimbus_sim.Engine
module Flow = Nimbus_cc.Flow
module Nimbus = Nimbus_core.Nimbus
module Z = Nimbus_core.Z_estimator
module Stats = Nimbus_dsp.Stats
module Time = Units.Time
module Freq = Units.Freq

let id = "appf"

let title = "Fig 26 (App F): detecting PCC-Vivace by lowering the pulse frequency"

let case (p : Common.profile) ~fp ~seed =
  let l = Common.link ~mbps:96. ~rtt_ms:50. ~buffer_bdp:2.0 () in
  let horizon = Common.scaled p 120. in
  let net = Common.setup ~seed l in
  let { Common.engine; topo; route; _ } = net in
  ignore
    (Flow.create_via topo ~route ~cc:(Nimbus_cc.Vivace.make ())
       ~prop_rtt:l.Common.prop_rtt ());
  let etas = ref [] in
  let nim =
    Nimbus.create
      { (Nimbus.Config.default ~mu:(Z.Mu.known l.Common.mu)) with
        fp_competitive = Freq.hz fp;
        on_detection =
          Some
            (fun d ->
              if not (Float.is_nan d.Nimbus.d_eta) then
                etas := d.Nimbus.d_eta :: !etas) }
  in
  ignore
    (Flow.create_via topo ~route
       ~cc:(Nimbus.cc nim ~now:(fun () -> Engine.now engine))
       ~prop_rtt:l.Common.prop_rtt ());
  Engine.run_until engine (Time.secs horizon);
  Array.of_list !etas

let run (p : Common.profile) =
  let rows =
    List.map
      (fun fp ->
        let etas = case p ~fp ~seed:26 in
        let frac_elastic =
          if Array.length etas = 0 then nan
          else begin
            let k =
              Array.fold_left (fun a e -> if e >= 2. then a + 1 else a) 0 etas
            in
            float_of_int k /. float_of_int (Array.length etas)
          end
        in
        [ Printf.sprintf "%.0f Hz" fp;
          Table.fmt_float (if Array.length etas = 0 then nan else Stats.median etas);
          Table.fmt_pct frac_elastic ])
      [ 5.; 2. ]
  in
  [ Table.make ~title
      ~header:[ "pulse freq"; "median eta"; "classified elastic" ]
      ~notes:
        [ "shape: at 5 Hz vivace reads inelastic (eta mostly < 2); at 2 Hz \
           the longer pulses catch its monitor-interval reaction" ]
      rows ]
