(* Tests for the measurement layer. *)

module Engine = Nimbus_sim.Engine
module Topology = Nimbus_topology.Topology
module Qdisc = Nimbus_sim.Qdisc
open Nimbus_metrics
module Time = Units.Time
module Rate = Units.Rate

let check_close ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* --- series --------------------------------------------------------------- *)

let test_series_basics () =
  let s = Series.create () in
  Alcotest.(check int) "empty" 0 (Series.length s);
  Alcotest.(check bool) "last nan" true (Float.is_nan (Series.last_value s));
  for i = 0 to 99 do
    Series.add s ~time:(Time.secs (float_of_int i)) ~value:(float_of_int (i * 2))
  done;
  Alcotest.(check int) "length" 100 (Series.length s);
  check_close "last" 198. (Series.last_value s);
  check_close "times" 42. (Series.times s).(42);
  check_close "values" 84. (Series.values s).(42)

let test_series_windows () =
  let s = Series.create () in
  for i = 0 to 9 do
    Series.add s ~time:(Time.secs (float_of_int i)) ~value:(float_of_int i)
  done;
  let w = Series.values_between s ~lo:(Time.secs 3.) ~hi:(Time.secs 6.) in
  Alcotest.(check (array (float 0.))) "half-open window" [| 3.; 4.; 5. |] w;
  check_close "mean over window" 4. (Series.mean_between s ~lo:(Time.secs 3.) ~hi:(Time.secs 6.));
  Alcotest.(check bool) "empty window nan" true
    (Float.is_nan (Series.mean_between s ~lo:(Time.secs 100.) ~hi:(Time.secs 200.)))

let test_series_iter_order () =
  let s = Series.create () in
  Series.add s ~time:(Time.secs 1.) ~value:10.;
  Series.add s ~time:(Time.secs 2.) ~value:20.;
  let acc = ref [] in
  Series.iter s (fun t v -> acc := (t, v) :: !acc);
  Alcotest.(check bool) "insertion order" true
    (List.rev !acc = [ (1., 10.); (2., 20.) ])

(* --- monitor -------------------------------------------------------------- *)

let test_monitor_throughput_math () =
  let e = Engine.create Engine.Config.default in
  let counter = ref 0 in
  (* grow the counter by 1250 bytes every 100 ms = 100 kbit/s *)
  Engine.every e ~dt:(Time.ms 100.) (fun () -> counter := !counter + 1250);
  let series =
    Monitor.throughput e ~interval:(Time.secs 1.0) ~until:(Time.secs 10.)
      (fun () -> !counter)
  in
  Engine.run_until e (Time.secs 10.);
  let values = Series.values series in
  Alcotest.(check bool) "some samples" true (Array.length values >= 9);
  (* skip the first sample (partial interval alignment) *)
  check_close ~eps:1e-6 "rate" 100_000. values.(5)

let test_monitor_queue_delay () =
  let e = Engine.create Engine.Config.default in
  let topo, route =
    Topology.dumbbell e
      (Topology.Link.Config.default ~rate:(Rate.bps 12e6)
         ~qdisc:(Qdisc.droptail ~capacity_bytes:1_000_000))
  in
  let bn = Topology.link_bottleneck (List.hd (Topology.links topo)) in
  let series =
    Monitor.queue_delay e bn ~interval:(Time.ms 10.) ~until:(Time.secs 0.2) ()
  in
  (* inject 100 packets at t=0; queue drains at 1 ms/packet *)
  let ingress = Topology.attach topo ~route ~flow:0 ~sink:ignore in
  for seq = 0 to 99 do
    ingress (Nimbus_sim.Packet.make ~flow:0 ~seq ~size:1500 ~now:Time.zero ())
  done;
  Engine.run_until e (Time.secs 0.2);
  let first = (Series.values series).(0) in
  (* after 10 ms, ~90 packets remain = ~90 ms of drain time *)
  Alcotest.(check bool) "tracks backlog" true (first > 0.08 && first < 0.1)

(* --- accuracy ------------------------------------------------------------- *)

let test_accuracy_counts () =
  let a = Accuracy.create () in
  Alcotest.(check bool) "empty nan" true (Float.is_nan (Accuracy.accuracy a));
  Accuracy.record a ~predicted_elastic:true ~truth_elastic:true;
  Accuracy.record a ~predicted_elastic:false ~truth_elastic:false;
  Accuracy.record a ~predicted_elastic:true ~truth_elastic:false;
  Accuracy.record a ~predicted_elastic:false ~truth_elastic:true;
  Alcotest.(check int) "samples" 4 (Accuracy.samples a);
  check_close "accuracy" 0.5 (Accuracy.accuracy a);
  check_close "tpr" 0.5 (Accuracy.true_positive_rate a);
  check_close "tnr" 0.5 (Accuracy.true_negative_rate a)

let test_accuracy_one_sided () =
  let a = Accuracy.create () in
  Accuracy.record a ~predicted_elastic:true ~truth_elastic:true;
  Alcotest.(check bool) "tnr undefined" true
    (Float.is_nan (Accuracy.true_negative_rate a));
  check_close "tpr" 1. (Accuracy.true_positive_rate a)

(* --- fairness ------------------------------------------------------------- *)

let test_jain () =
  check_close "equal shares" 1. (Fairness.jain [| 5.; 5.; 5.; 5. |]);
  check_close "one hog" 0.25 (Fairness.jain [| 1.; 0.; 0.; 0. |]);
  Alcotest.(check bool) "empty nan" true (Float.is_nan (Fairness.jain [||]))

let test_normalized_share () =
  check_close "half" 0.5 (Fairness.normalized_share ~achieved:(Rate.bps 12.) ~fair:(Rate.bps 24.));
  Alcotest.(check bool) "zero fair nan" true
    (Float.is_nan (Fairness.normalized_share ~achieved:(Rate.bps 1.) ~fair:Rate.zero))

(* --- fct ------------------------------------------------------------------ *)

let test_fct_bucketize () =
  let fcts =
    Array.map
      (fun (size, fct) -> (size, Time.secs fct))
      [| (10_000, 0.1); (14_000, 0.2); (100_000, 1.0); (2_000_000, 3.0);
         (999_000_000, 60.0) |]
  in
  let buckets = Fct.bucketize fcts in
  Alcotest.(check int) "bucket count" 5 (Array.length buckets);
  Alcotest.(check int) "small flows" 2 (Array.length buckets.(0));
  Alcotest.(check int) "150KB bucket" 1 (Array.length buckets.(1));
  Alcotest.(check int) "2MB lands in the 15MB bucket" 1
    (Array.length buckets.(3));
  Alcotest.(check int) "oversized lands in last" 1 (Array.length buckets.(4));
  let p95 = Fct.p95 buckets in
  Alcotest.(check bool) "empty bucket nan" true (Float.is_nan p95.(2));
  check_close ~eps:0.02 "p95 of 2-elem bucket" 0.195 p95.(0)

let test_fct_labels () =
  Alcotest.(check string) "KB" "15KB" (Fct.bucket_label 15_000);
  Alcotest.(check string) "MB" "1.5MB" (Fct.bucket_label 1_500_000)

let prop_jain_bounds =
  QCheck.Test.make ~count:200 ~name:"fairness: jain within [1/n, 1]"
    QCheck.(list_of_size Gen.(int_range 1 20) (float_range 0.01 1e6))
    (fun xs ->
      let a = Array.of_list xs in
      let j = Fairness.jain a in
      let n = float_of_int (Array.length a) in
      j >= (1. /. n) -. 1e-9 && j <= 1. +. 1e-9)

let prop_series_window_subset =
  QCheck.Test.make ~count:100 ~name:"series: window values are a subset"
    QCheck.(list (pair (float_range 0. 100.) (float_bound_exclusive 1000.)))
    (fun pts ->
      let s = Series.create () in
      List.iter (fun (t, v) -> Series.add s ~time:(Time.secs t) ~value:v) pts;
      let w = Series.values_between s ~lo:(Time.secs 25.) ~hi:(Time.secs 75.) in
      let all = Array.to_list (Series.values s) in
      Array.for_all (fun v -> List.mem v all) w)

let qtest = QCheck_alcotest.to_alcotest

let suite =
  [ ( "metrics.series",
      [ Alcotest.test_case "basics" `Quick test_series_basics;
        Alcotest.test_case "windows" `Quick test_series_windows;
        Alcotest.test_case "iter order" `Quick test_series_iter_order;
        qtest prop_series_window_subset ] );
    ( "metrics.monitor",
      [ Alcotest.test_case "throughput math" `Quick test_monitor_throughput_math;
        Alcotest.test_case "queue delay" `Quick test_monitor_queue_delay ] );
    ( "metrics.accuracy",
      [ Alcotest.test_case "counts" `Quick test_accuracy_counts;
        Alcotest.test_case "one-sided" `Quick test_accuracy_one_sided ] );
    ( "metrics.fairness",
      [ Alcotest.test_case "jain" `Quick test_jain;
        Alcotest.test_case "normalized share" `Quick test_normalized_share;
        qtest prop_jain_bounds ] );
    ( "metrics.fct",
      [ Alcotest.test_case "bucketize" `Quick test_fct_bucketize;
        Alcotest.test_case "labels" `Quick test_fct_labels ] ) ]
