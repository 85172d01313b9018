(* Tests for the traffic generators: open-loop sources, the synthetic WAN
   workload, the DASH video client, and scripted scenarios. *)

module Engine = Nimbus_sim.Engine
module Topology = Nimbus_topology.Topology
module Bottleneck = Nimbus_sim.Bottleneck
module Qdisc = Nimbus_sim.Qdisc
module Rng = Nimbus_sim.Rng
open Nimbus_traffic
module Time = Units.Time
module Rate = Units.Rate

let make_link ?(rate_bps = 96e6) () =
  let e = Engine.create Engine.Config.default in
  let topo, route =
    Topology.dumbbell e
      (Topology.Link.Config.default ~rate:(Rate.bps rate_bps)
         ~qdisc:
           (Qdisc.droptail
              ~capacity_bytes:(int_of_float (rate_bps *. 0.1 /. 8.))))
  in
  (e, Topology.link_bottleneck (List.hd (Topology.links topo)), topo, route)

let delivered bn source =
  Bottleneck.delivered_bytes bn ~flow:(Source.flow_id source)

(* --- open-loop sources ---------------------------------------------------- *)

let test_cbr_rate () =
  let e, bn, topo, route = make_link () in
  let s = Source.cbr_via topo ~route ~rate:(Rate.bps 12e6) () in
  Engine.run_until e (Time.secs 10.);
  let rate = float_of_int (delivered bn s * 8) /. 10. in
  if Float.abs (rate -. 12e6) > 0.2e6 then
    Alcotest.failf "cbr rate %.2fM != 12M" (rate /. 1e6)

let test_poisson_mean_rate () =
  let e, bn, topo, route = make_link () in
  let s = Source.poisson_via topo ~route ~rng:(Rng.create 2)
      ~rate:(Rate.bps 24e6) () in
  Engine.run_until e (Time.secs 30.);
  let rate = float_of_int (delivered bn s * 8) /. 30. in
  if Float.abs (rate -. 24e6) > 1.5e6 then
    Alcotest.failf "poisson rate %.2fM != ~24M" (rate /. 1e6)

let test_source_delayed_start () =
  let e, bn, topo, route = make_link () in
  let s = Source.cbr_via topo ~route ~rate:(Rate.bps 12e6)
      ~start:(Time.secs 5.) () in
  Engine.run_until e (Time.secs 4.);
  Alcotest.(check int) "silent before start" 0 (delivered bn s);
  Engine.run_until e (Time.secs 6.);
  Alcotest.(check bool) "sending after start" true (delivered bn s > 0)

let test_source_set_rate () =
  let e, bn, topo, route = make_link () in
  let s = Source.cbr_via topo ~route ~rate:(Rate.bps 12e6) () in
  Engine.schedule_at e (Time.secs 5.) (fun () -> Source.set_rate s Rate.zero);
  Engine.run_until e (Time.secs 5.);
  let at_5 = delivered bn s in
  Engine.run_until e (Time.secs 10.);
  Alcotest.(check bool) "paused" true (delivered bn s - at_5 < 3 * 1500);
  Engine.schedule_at e (Time.secs 10.) (fun () -> Source.set_rate s (Rate.bps 24e6));
  Engine.run_until e (Time.secs 15.);
  Alcotest.(check bool) "resumed at new rate" true
    (delivered bn s - at_5 > 10_000_000)

(* an infinite rate is a zero inter-packet gap (simulated time would never
   advance) and NaN would silently pause the source: both are rejected, at
   creation and in set_rate *)
let test_source_rejects_non_finite_rate () =
  let _, _, topo, route = make_link () in
  let rejects what f =
    match f () with
    | _ -> Alcotest.failf "%s accepted" what
    | exception Invalid_argument _ -> ()
  in
  List.iter
    (fun bps ->
      let rate = Rate.bps bps in
      rejects (Printf.sprintf "cbr_via %g" bps) (fun () ->
          Source.cbr_via topo ~route ~rate ());
      rejects (Printf.sprintf "poisson_via %g" bps) (fun () ->
          Source.poisson_via topo ~route ~rng:(Rng.create 1) ~rate ());
      let s = Source.cbr_via topo ~route ~rate:(Rate.bps 1e6) () in
      rejects (Printf.sprintf "set_rate %g" bps) (fun () ->
          Source.set_rate s rate);
      Alcotest.(check (float 0.)) "rate unchanged" 1e6
        (Rate.to_bps (Source.rate s)))
    [ nan; infinity; neg_infinity ]

(* --- wan ------------------------------------------------------------------ *)

let test_wan_offered_load () =
  let e, _, topo, route = make_link () in
  let wan = Wan.create topo ~route ~rng:(Rng.create 3)
      ~load:(Rate.bps 48e6) () in
  Engine.run_until e (Time.secs 60.);
  let _, total = Wan.bytes_split wan in
  let rate = float_of_int (total * 8) /. 60. in
  (* offered 48M on a 96M link: delivered should be in the right ballpark
     (heavy-tailed sizes make this noisy) *)
  Alcotest.(check bool) "load ballpark" true (rate > 24e6 && rate < 72e6);
  Alcotest.(check bool) "many arrivals" true (Wan.arrivals wan > 500)

let test_wan_elastic_split_consistent () =
  let e, _, topo, route = make_link () in
  let wan = Wan.create topo ~route ~rng:(Rng.create 4)
      ~load:(Rate.bps 48e6) () in
  Engine.run_until e (Time.secs 30.);
  let elastic, total = Wan.bytes_split wan in
  Alcotest.(check bool) "elastic <= total" true (elastic <= total);
  Alcotest.(check bool) "both kinds present" true
    (elastic > 0 && total - elastic > 0)

let test_wan_fcts_recorded () =
  let e, _, topo, route = make_link () in
  let wan = Wan.create topo ~route ~rng:(Rng.create 5)
      ~load:(Rate.bps 24e6) () in
  Engine.run_until e (Time.secs 30.);
  let fcts = Wan.fcts wan in
  Alcotest.(check bool) "completions recorded" true (Array.length fcts > 100);
  Array.iter
    (fun (size, fct) ->
      if size <= 0 || Time.to_secs fct <= 0. then Alcotest.fail "nonsense FCT record")
    fcts

let test_wan_concurrency_cap () =
  let e, _, topo, route = make_link ~rate_bps:5e6 () in
  (* oversubscribed link: flows pile up until the cap kicks in *)
  let wan =
    Wan.create topo ~route ~rng:(Rng.create 6) ~load:(Rate.bps 20e6) ()
  in
  Engine.run_until e (Time.secs 60.);
  Alcotest.(check bool) "never exceeds cap" true (Wan.active_count wan <= 512);
  Alcotest.(check bool) "skips counted" true (Wan.skipped wan > 0)

let test_wan_profiles_differ () =
  let _, _, topo, route = make_link () in
  let churny = Wan.create topo ~route ~rng:(Rng.create 10)
      ~load:(Rate.bps 24e6) () in
  let elephant =
    Wan.create topo ~route ~rng:(Rng.create 10) ~profile:`Elephant
      ~load:(Rate.bps 24e6) ()
  in
  (* the elephant mixture concentrates bytes in far larger flows *)
  Alcotest.(check bool) "elephant mean > 2x churny mean" true
    Units.Bytes.(Wan.mean_flow_size elephant
    > scale 2. (Wan.mean_flow_size churny))

let test_wan_persistent_elastic () =
  let e, _, topo, route = make_link () in
  let wan =
    Wan.create topo ~route ~rng:(Rng.create 11) ~profile:`Elephant
      ~load:(Rate.bps 48e6) ()
  in
  (* nothing is persistent at t=0 *)
  Alcotest.(check bool) "initially false" false
    (Wan.persistent_elastic_active wan ~now:Time.zero ~min_age:(Time.secs 2.) ~min_size:1_000_000);
  Engine.run_until e (Time.secs 60.);
  (* over a minute of elephant-profile traffic, persistent flows must have
     appeared at some point; we just check the query is consistent now *)
  let now = Engine.now e in
  let strict =
    Wan.persistent_elastic_active wan ~now ~min_age:(Time.secs 2.) ~min_size:1_000_000
  in
  let loose = Wan.persistent_elastic_active wan ~now ~min_age:Time.zero ~min_size:0 in
  Alcotest.(check bool) "strict implies loose" true ((not strict) || loose)

(* The outcome of a seeded 20 s churny run on a lossy, policed dumbbell,
   pinned: the byte split, active count and persistent-elastic answer at
   every second, then every completed transfer's size and FCT bits, as one
   MD5, plus the final counters.  The 24 Mbit/s link is overloaded (28
   Mbit/s offered) behind a 1.5 s buffer, so hundreds of flows stay active
   and finish in every order; loss, the policer and the deep queue make
   flows retransmit spuriously, so originals and their ACKs keep landing
   after a flow has completed and released its buffers (an instrumented
   copy of the flow counted 644 late deliveries and 485 late ACKs in this
   run).  The values were recorded before finished flows recycled their
   buffers. *)
let test_wan_churn_pins () =
  let e = Engine.create Engine.Config.default in
  let link =
    Topology.Link.Config.default ~rate:(Rate.mbps 24.)
      ~qdisc:(Qdisc.droptail ~capacity_bytes:4_500_000)
  in
  let link =
    { link with
      bottleneck =
        { link.bottleneck with
          random_loss = Some (0.01, Rng.create 21);
          policer = Some (Rate.mbps 30., 150_000) } }
  in
  let topo, route = Topology.dumbbell e link in
  let wan =
    Wan.create topo ~route ~rng:(Rng.create 20) ~load:(Rate.mbps 28.) ()
  in
  let b = Buffer.create 65536 in
  for s = 1 to 20 do
    Engine.run_until e (Time.secs (float_of_int s));
    let elastic, total = Wan.bytes_split wan in
    Printf.bprintf b "%d %d %d %d %b\n" s elastic total (Wan.active_count wan)
      (Wan.persistent_elastic_active wan ~now:(Engine.now e)
         ~min_age:(Time.secs 2.) ~min_size:100_000)
  done;
  let fcts = Wan.fcts wan in
  Array.iter
    (fun (size, fct) ->
      Printf.bprintf b "%d %Lx\n" size (Int64.bits_of_float (Time.to_secs fct)))
    fcts;
  let elastic, total = Wan.bytes_split wan in
  Alcotest.(check int) "completed" 2730 (Array.length fcts);
  Alcotest.(check (pair int int)) "bytes split" (45185993, 55487796)
    (elastic, total);
  Alcotest.(check int) "arrivals" 2936 (Wan.arrivals wan);
  Alcotest.(check int) "skipped" 0 (Wan.skipped wan);
  Alcotest.(check int) "active" 206 (Wan.active_count wan);
  Alcotest.(check string) "per-second samples and fcts"
    "031540f81f3b8ecdaa94de175edf83eb"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* The active set is an unordered array with swap-remove.  Flows of
   random sizes start at random gaps and finish in whatever order the link
   gives them; at every step [active_count], [bytes_split] and
   [persistent_elastic_active] must match a recount over the test's own
   list of the flows it started.  The load is tiny, so the generator's own
   arrivals never come.  A completed cross-flow is given up, and its
   record may already carry a later one, so the list keeps each flow's id
   from its launch: a handle whose id has changed has completed. *)
let prop_wan_active_recount =
  QCheck.Test.make ~count:60 ~name:"wan: active set matches a recount"
    QCheck.(
      pair (int_range 1 1000)
        (list_of_size Gen.(int_range 1 60)
           (pair (int_range 400 150_000) (int_range 0 40))))
    (fun (seed, launches) ->
      let e, _, topo, route = make_link ~rate_bps:24e6 () in
      let wan =
        Wan.create topo ~route ~rng:(Rng.create seed) ~load:(Rate.bps 1e-3) ()
      in
      let flows = ref [] in
      let elastic size = size > 10 * 1500 in
      let completed (f, id, _) =
        Nimbus_cc.Flow.id f <> id
        || Option.is_some (Nimbus_cc.Flow.completion_time f)
      in
      let matches () =
        let now = Engine.now e in
        let active = List.filter (fun x -> not (completed x)) !flows in
        let sum pick =
          List.fold_left
            (fun acc ((f, _, size) as x) ->
              if not (pick size) then acc
              else if not (completed x) then
                acc + Nimbus_cc.Flow.received_bytes f
              else acc + size)
            0 !flows
        in
        let persistent ~min_age ~min_size =
          List.exists
            (fun (f, _, size) ->
              elastic size && size >= min_size
              && Time.to_secs now
                 -. Time.to_secs (Nimbus_cc.Flow.start_time f)
                 >= min_age)
            active
        in
        Wan.active_count wan = List.length active
        && Wan.bytes_split wan = (sum elastic, sum (fun _ -> true))
        && Array.length (Wan.fcts wan) = List.length !flows - List.length active
        && List.for_all
             (fun (min_age, min_size) ->
               Wan.persistent_elastic_active wan ~now
                 ~min_age:(Time.secs min_age) ~min_size
               = persistent ~min_age ~min_size)
             [ (0., 0); (0.05, 20_000); (0.2, 60_000) ]
      in
      let ok = ref true in
      let step dt =
        Engine.run_until e (Time.add (Engine.now e) (Time.ms dt));
        ok := !ok && matches ()
      in
      List.iter
        (fun (size, gap_ms) ->
          step (float_of_int gap_ms);
          let f = Wan.Private.launch wan ~size in
          flows := (f, Nimbus_cc.Flow.id f, size) :: !flows)
        launches;
      for _ = 1 to 200 do
        step 25.
      done;
      !ok && Wan.active_count wan = 0)

(* A cross-flow's controller changes hands only when the flow is released,
   never at its completion: a flow completes when its receiver has every
   byte, while the ACKs of its last packets are still on the reverse leg
   and still drive its Cubic.  A launch in that window makes a controller
   of its own; the first launch after the release takes the controller
   back, with the released flow's record. *)
let test_wan_controller_changes_hands_at_release () =
  let e, _, topo, route = make_link ~rate_bps:24e6 () in
  let wan =
    Wan.create topo ~route ~rng:(Rng.create 3) ~load:(Rate.bps 1e-3) ()
  in
  let a = Wan.Private.launch wan ~size:30_000 in
  let step () = Engine.run_until e (Time.add (Engine.now e) (Time.ms 0.1)) in
  while Option.is_none (Nimbus_cc.Flow.completion_time a) do
    step ()
  done;
  Alcotest.(check bool) "A completed with ACKs in flight" true
    (Nimbus_cc.Flow.inflight_bytes a > 0);
  Alcotest.(check int) "no controller to hand on at completion" 0
    (Wan.Private.spare_controllers wan);
  let c = Wan.Private.launch wan ~size:1_000_000 in
  Alcotest.(check bool) "C took a fresh record" true (c != a);
  while Nimbus_cc.Flow.inflight_bytes a > 0 do
    step ()
  done;
  Alcotest.(check int) "A's controller came back at its release" 1
    (Wan.Private.spare_controllers wan);
  let b = Wan.Private.launch wan ~size:1_000_000 in
  Alcotest.(check bool) "B took A's record" true (b == a);
  Alcotest.(check int) "and A's controller" 0
    (Wan.Private.spare_controllers wan)

(* Minor words per completed flow of a churny WAN (30 Mbit/s offered to a
   48 Mbit/s link) over 20 s after a 5 s warm-up: every packet of the flow
   and its set-up.  64.6 measured; 106.3 when each flow made a new Cubic
   and every size, RTT and gap draw came back boxed, 248.9 when each flow
   had a fresh record, handlers and per-link forwarding closures and only
   its buffers were recycled, and 513.5 when each flow grew its
   scoreboard, rings and rate ring from empty and the active set was a
   list filtered on every completion. *)
let test_wan_churn_words_per_flow () =
  let e, _, topo, route = make_link ~rate_bps:48e6 () in
  let wan =
    Wan.create topo ~route ~rng:(Rng.create 12) ~load:(Rate.mbps 30.) ()
  in
  Engine.run_until e (Time.secs 5.);
  let n0 = Array.length (Wan.fcts wan) in
  let before = Gc.minor_words () in
  Engine.run_until e (Time.secs 25.);
  let words = Gc.minor_words () -. before in
  let flows = Array.length (Wan.fcts wan) - n0 in
  Alcotest.(check bool) "thousands of flows completed" true (flows > 3000);
  let per_flow = words /. float_of_int flows in
  if per_flow > 70. then
    Alcotest.failf "%.1f minor words per completed flow (want <= 70)"
      per_flow

let test_wan_mean_size_positive () =
  let _, _, topo, route = make_link () in
  let wan = Wan.create topo ~route ~rng:(Rng.create 7)
      ~load:(Rate.bps 24e6) () in
  Alcotest.(check bool) "sane analytic mean" true
    (Units.Bytes.to_float (Wan.mean_flow_size wan) > 5_000.
    && Units.Bytes.to_float (Wan.mean_flow_size wan) < 100_000.)

(* --- video ---------------------------------------------------------------- *)

let test_video_1080p_app_limited () =
  let e, bn, topo, route = make_link ~rate_bps:48e6 () in
  let v = Video.create topo ~route ~ladder:Video.ladder_1080p () in
  Engine.run_until e (Time.secs 60.);
  Alcotest.(check bool) "fetched chunks" true (Video.chunks_fetched v > 5);
  Alcotest.(check bool) "no stalls on an idle link" true
    (Time.to_secs (Video.rebuffer v) < 1.);
  (* on an otherwise idle 48M link, a 1080p stream must be app-limited:
     delivered rate well under the link rate *)
  let rate =
    float_of_int (Bottleneck.delivered_bytes bn ~flow:(Video.flow_id v) * 8)
    /. 60.
  in
  Alcotest.(check bool) "app-limited" true (rate < 15e6);
  Alcotest.(check bool) "keeps playing" true (Time.to_secs (Video.buffer v) > 2.)

let test_video_4k_network_limited () =
  let e, bn, topo, route = make_link ~rate_bps:24e6 () in
  (* top 4K rung (32 Mbps) exceeds this link: the client stays busy *)
  let v = Video.create topo ~route ~ladder:Video.ladder_4k () in
  Engine.run_until e (Time.secs 60.);
  let rate =
    float_of_int (Bottleneck.delivered_bytes bn ~flow:(Video.flow_id v) * 8)
    /. 60.
  in
  Alcotest.(check bool) "uses most of the link" true (rate > 0.5 *. 24e6);
  Alcotest.(check bool) "bitrate adapts below the link" true
    (Rate.to_bps (Video.current_bitrate v) <= 24e6)

let test_video_validation () =
  let _, _, topo, route = make_link () in
  Alcotest.(check bool) "empty ladder" true
    (try ignore (Video.create topo ~route ~ladder:[||] ()); false
     with Invalid_argument _ -> true)

(* --- schedule ------------------------------------------------------------- *)

let test_schedule_phases () =
  let e, _, topo, route = make_link () in
  let sched =
    Schedule.install topo ~route ~rng:(Rng.create 8)
      ~phases:
        [ Schedule.phase ~start:Time.zero ~stop:(Time.secs 10.)
            ~inelastic:(Rate.bps 24e6) ~elastic_flows:0;
          Schedule.phase ~start:(Time.secs 10.) ~stop:(Time.secs 20.)
            ~inelastic:Rate.zero ~elastic_flows:2 ]
      ()
  in
  Alcotest.(check bool) "phase 1 inelastic" false
    (Schedule.elastic_present sched ~now:(Time.secs 5.));
  Alcotest.(check bool) "phase 2 elastic" true
    (Schedule.elastic_present sched ~now:(Time.secs 15.));
  Alcotest.(check bool) "after end" false
    (Schedule.elastic_present sched ~now:(Time.secs 25.));
  Alcotest.(check (float 0.001)) "phase 1 rate" 24e6
    (Rate.to_bps (Schedule.inelastic_rate sched ~now:(Time.secs 5.)));
  Alcotest.(check (float 0.001)) "fair share phase 1" 72e6
    (Rate.to_bps
       (Schedule.fair_share sched ~now:(Time.secs 5.) ~mu:(Rate.bps 96e6)
          ~primary_flows:1));
  Alcotest.(check (float 0.001)) "fair share phase 2" 32e6
    (Rate.to_bps
       (Schedule.fair_share sched ~now:(Time.secs 15.) ~mu:(Rate.bps 96e6)
          ~primary_flows:1));
  Engine.run_until e (Time.secs 20.);
  Alcotest.(check int) "created the elastic flows" 2
    (List.length (Schedule.elastic_cross_flows sched))

let test_schedule_drives_traffic () =
  let e, bn, topo, route = make_link () in
  let _sched =
    Schedule.install topo ~route ~rng:(Rng.create 9)
      ~phases:
        [ Schedule.phase ~start:Time.zero ~stop:(Time.secs 10.)
            ~inelastic:(Rate.bps 24e6) ~elastic_flows:1 ]
      ()
  in
  Engine.run_until e (Time.secs 15.);
  (* the elastic flow should have consumed the remaining ~72M *)
  Alcotest.(check bool) "link was substantially used" true
    (Time.to_secs (Bottleneck.busy_time bn) > 5.)

let test_schedule_validation () =
  Alcotest.(check bool) "bad phase" true
    (try
       ignore
         (Schedule.phase ~start:(Time.secs 5.) ~stop:(Time.secs 5.)
            ~inelastic:Rate.zero ~elastic_flows:0);
       false
     with Invalid_argument _ -> true)

let suite =
  [ ( "traffic.source",
      [ Alcotest.test_case "cbr rate" `Quick test_cbr_rate;
        Alcotest.test_case "poisson mean" `Quick test_poisson_mean_rate;
        Alcotest.test_case "delayed start" `Quick test_source_delayed_start;
        Alcotest.test_case "set_rate" `Quick test_source_set_rate;
        Alcotest.test_case "rejects non-finite rate" `Quick
          test_source_rejects_non_finite_rate ] );
    ( "traffic.wan",
      [ Alcotest.test_case "offered load" `Quick test_wan_offered_load;
        Alcotest.test_case "elastic split" `Quick
          test_wan_elastic_split_consistent;
        Alcotest.test_case "fcts" `Quick test_wan_fcts_recorded;
        Alcotest.test_case "concurrency cap" `Quick test_wan_concurrency_cap;
        Alcotest.test_case "mean size" `Quick test_wan_mean_size_positive;
        Alcotest.test_case "profiles differ" `Quick test_wan_profiles_differ;
        Alcotest.test_case "persistent elastic" `Quick
          test_wan_persistent_elastic;
        Alcotest.test_case "churn pins" `Quick test_wan_churn_pins;
        QCheck_alcotest.to_alcotest prop_wan_active_recount;
        Alcotest.test_case "churn words per completed flow" `Quick
          test_wan_churn_words_per_flow;
        Alcotest.test_case "controller changes hands at release" `Quick
          test_wan_controller_changes_hands_at_release ] );
    ( "traffic.video",
      [ Alcotest.test_case "1080p app-limited" `Quick
          test_video_1080p_app_limited;
        Alcotest.test_case "4k network-limited" `Quick
          test_video_4k_network_limited;
        Alcotest.test_case "validation" `Quick test_video_validation ] );
    ( "traffic.schedule",
      [ Alcotest.test_case "phases" `Quick test_schedule_phases;
        Alcotest.test_case "drives traffic" `Quick test_schedule_drives_traffic;
        Alcotest.test_case "validation" `Quick test_schedule_validation ] ) ]
