(* §3.1: accuracy of the cross-traffic rate estimator ẑ = µ·S/R − S.
   Ground truth is the cross traffic's departure rate measured at the
   bottleneck over matching one-second windows.  Paper: relative error
   p50 ≈ 1.3%, p95 ≈ 7.5%. *)

module Engine = Nimbus_sim.Engine
module Bottleneck = Nimbus_sim.Bottleneck
module Rng = Nimbus_sim.Rng
module Flow = Nimbus_cc.Flow
module Nimbus = Nimbus_core.Nimbus
module Z = Nimbus_core.Z_estimator
module Source = Nimbus_traffic.Source
module Stats = Nimbus_dsp.Stats
module Time = Units.Time
module Rate = Units.Rate

let id = "zest"

let title = "§3.1: cross-traffic rate estimator accuracy"

let case (p : Common.profile) ~label ~seed ~install =
  let l = Common.link ~mbps:96. ~rtt_ms:50. ~buffer_bdp:2.0 () in
  let horizon = Common.scaled p 60. in
  let net = Common.setup ~seed l in
  let { Common.engine; topo; route; bottleneck = bn; _ } = net in
  let cross_ids = install net in
  let z_acc = ref 0. and z_n = ref 0 in
  let nim =
    Nimbus.create
      { (Nimbus.Config.default ~mu:(Z.Mu.known l.Common.mu)) with
        on_sample =
          Some
            (fun s ->
              let z = Rate.to_bps s.Nimbus.s_z in
              if not (Float.is_nan z) then begin
                z_acc := !z_acc +. z;
                incr z_n
              end) }
  in
  ignore
    (Flow.create_via topo ~route
       ~cc:(Nimbus.cc nim ~now:(fun () -> Engine.now engine))
       ~prop_rtt:l.Common.prop_rtt ());
  let errors = ref [] in
  let prev = ref 0 in
  Engine.every engine ~dt:(Time.secs 1.0) ~start:(Time.secs 10.)
    ~until:(Time.secs horizon) (fun () ->
      let delivered =
        List.fold_left
          (fun acc fid -> acc + Bottleneck.delivered_bytes bn ~flow:fid)
          0 cross_ids
      in
      let truth = float_of_int ((delivered - !prev) * 8) /. 1.0 in
      prev := delivered;
      if !z_n > 0 && truth > 1e6 then begin
        let z_mean = !z_acc /. float_of_int !z_n in
        errors :=
          Stats.relative_error ~actual:z_mean ~expected:truth :: !errors
      end;
      z_acc := 0.;
      z_n := 0);
  Engine.run_until engine (Time.secs horizon);
  let errs = Array.of_list !errors in
  (label, errs)

let run (p : Common.profile) =
  (* each (pattern, seed) pair is an independent simulation; full profiles
     pool the error samples of [p.seeds] consecutive seeds per pattern *)
  let specs =
    [ ( "Poisson 24M", 31,
        fun (net : Common.net) ->
          [ Source.flow_id
              (Source.poisson_via net.topo ~route:net.route
                 ~rng:(Rng.split net.rng) ~rate:(Rate.bps 24e6) ()) ] );
      ( "CBR 48M", 32,
        fun (net : Common.net) ->
          [ Source.flow_id
              (Source.cbr_via net.topo ~route:net.route ~rate:(Rate.bps 48e6)
                 ()) ] );
      ( "1 Cubic", 33,
        fun (net : Common.net) ->
          [ Flow.id
              (Flow.create_via net.topo ~route:net.route
                 ~cc:(Nimbus_cc.Cubic.make ())
                 ~prop_rtt:net.net_link.prop_rtt ()) ] );
      ( "2 Cubic + Poisson 16M", 34,
        fun (net : Common.net) ->
          let rtt = net.net_link.prop_rtt in
          let f1 =
            Flow.create_via net.topo ~route:net.route
              ~cc:(Nimbus_cc.Cubic.make ()) ~prop_rtt:rtt ()
          in
          let f2 =
            Flow.create_via net.topo ~route:net.route
              ~cc:(Nimbus_cc.Cubic.make ()) ~prop_rtt:(Time.scale 1.5 rtt) ()
          in
          let s =
            Source.poisson_via net.topo ~route:net.route
              ~rng:(Rng.split net.rng) ~rate:(Rate.bps 16e6) ()
          in
          [ Flow.id f1; Flow.id f2; Source.flow_id s ] ) ]
  in
  let cases =
    Common.map_cases
      ~f:(fun (label, base, install) ->
        let per_seed =
          Common.run_seeds p ~base (fun ~seed ->
              case p ~label ~seed
                ~install:
                  (install
                  [@shared_ok
                    "immutable scenario installer from the spec list; it \
                     populates the fresh per-run engine it is handed"]))
        in
        (label, Array.concat (List.map snd per_seed)))
      specs
  in
  let rows =
    List.map
      (fun (label, errs) ->
        if Array.length errs = 0 then [ label; "-"; "-"; "-" ]
        else
          [ label;
            string_of_int (Array.length errs);
            Table.fmt_pct (Stats.percentile errs 50.);
            Table.fmt_pct (Stats.percentile errs 95.) ])
      cases
  in
  [ Table.make ~title
      ~header:[ "cross traffic"; "windows"; "rel err p50"; "rel err p95" ]
      ~notes:
        [ "paper: p50 = 1.3%, p95 = 7.5% -- expect single-digit p50 and \
           p95 within a few tens of percent across patterns" ]
      rows ]
