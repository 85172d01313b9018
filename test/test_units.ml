(* Algebraic laws for the lib/units carriers: constructors and accessors are
   exact inverses (the types are zero-cost wrappers, so no rounding may
   sneak in), arithmetic coincides with float arithmetic on the payload, and
   the cross-unit operators honour their dimensional identities. *)

module Time = Units.Time
module Rate = Units.Rate
module Freq = Units.Freq
module B = Units.Bytes

let finite = QCheck.float_range (-1e9) 1e9

let positive = QCheck.float_range 1e-6 1e9

(* --- round trips: accessor ∘ constructor = id, exactly ------------------- *)

let prop_time_secs_roundtrip =
  QCheck.Test.make ~count:500 ~name:"units: to_secs (secs x) = x" finite
    (fun x -> Float.equal (Time.to_secs (Time.secs x)) x)

let prop_rate_bps_roundtrip =
  QCheck.Test.make ~count:500 ~name:"units: to_bps (bps x) = x" finite
    (fun x -> Float.equal (Rate.to_bps (Rate.bps x)) x)

let prop_freq_hz_roundtrip =
  QCheck.Test.make ~count:500 ~name:"units: to_hz (hz x) = x" finite (fun x ->
      Float.equal (Freq.to_hz (Freq.hz x)) x)

let prop_bytes_roundtrip =
  QCheck.Test.make ~count:500 ~name:"units: to_float (bytes x) = x" finite
    (fun x -> Float.equal (B.to_float (B.bytes x)) x)

let prop_of_float_roundtrip =
  QCheck.Test.make ~count:500 ~name:"units: to_float (of_float x) = x, all four"
    finite (fun x ->
      Float.equal (Time.to_float (Time.of_float x)) x
      && Float.equal (Rate.to_float (Rate.of_float x)) x
      && Float.equal (Freq.to_float (Freq.of_float x)) x
      && Float.equal (B.to_float (B.of_float x)) x)

(* --- scaled constructors --------------------------------------------------- *)

let prop_time_ms_scaling =
  QCheck.Test.make ~count:500 ~name:"units: secs (x*1e-3) = ms x" finite
    (fun x -> Time.equal (Time.secs (x *. 1e-3)) (Time.ms x))

let prop_rate_mbps_scaling =
  QCheck.Test.make ~count:500 ~name:"units: bps (x*1e6) = mbps x" finite
    (fun x -> Rate.equal (Rate.bps (x *. 1e6)) (Rate.mbps x))

let prop_bytes_bits_roundtrip =
  QCheck.Test.make ~count:500 ~name:"units: to_bits (of_bits b) = b" finite
    (fun b -> Float.equal (B.to_bits (B.of_bits b)) b)

let prop_time_us_scaling =
  QCheck.Test.make ~count:500 ~name:"units: secs (x*1e-6) = us x, exactly"
    finite
    (fun x -> Time.equal (Time.secs (x *. 1e-6)) (Time.us x))

let prop_rate_gbps_scaling =
  QCheck.Test.make ~count:500 ~name:"units: bps (x*1e9) = gbps x" finite
    (fun x -> Rate.equal (Rate.bps (x *. 1e9)) (Rate.gbps x))

(* --- arithmetic is payload arithmetic -------------------------------------- *)

let prop_time_add_is_float_add =
  QCheck.Test.make ~count:500 ~name:"units: add = payload +"
    QCheck.(pair finite finite) (fun (a, b) ->
      Float.equal (Time.to_secs (Time.add (Time.secs a) (Time.secs b))) (a +. b)
      && Float.equal (Rate.to_bps (Rate.add (Rate.bps a) (Rate.bps b))) (a +. b))

let prop_scale_is_float_mul =
  QCheck.Test.make ~count:500 ~name:"units: scale k = payload k*"
    QCheck.(pair finite finite) (fun (k, x) ->
      Float.equal (Time.to_secs (Time.scale k (Time.secs x))) (k *. x)
      && Float.equal (Rate.to_bps (Rate.scale k (Rate.bps x))) (k *. x)
      && Float.equal (Freq.to_hz (Freq.scale k (Freq.hz x))) (k *. x)
      && Float.equal (B.to_float (B.scale k (B.bytes x))) (k *. x))

let prop_compare_agrees_with_float =
  QCheck.Test.make ~count:500 ~name:"units: compare = Float.compare on payload"
    QCheck.(pair finite finite) (fun (a, b) ->
      Time.compare (Time.secs a) (Time.secs b) = Float.compare a b
      && Rate.compare (Rate.bps a) (Rate.bps b) = Float.compare a b)

(* --- cross-unit identities ------------------------------------------------- *)

let close ?(tol = 1e-9) a b = Float.abs (a -. b) <= tol *. Float.max 1. (Float.abs b)

(* scaled accessors: exact against their defining expression, and the
   scaled-constructor round trips land within float rounding *)
let prop_time_ms_accessor =
  QCheck.Test.make ~count:500 ~name:"units: to_ms laws" finite (fun x ->
      Float.equal (Time.to_ms (Time.secs x)) (x *. 1e3)
      && close (Time.to_ms (Time.ms x)) x)

let prop_rate_mbps_accessor =
  QCheck.Test.make ~count:500 ~name:"units: to_mbps laws" finite (fun x ->
      Float.equal (Rate.to_mbps (Rate.bps x)) (x /. 1e6)
      && close (Rate.to_mbps (Rate.mbps x)) x)

let prop_rate_tx_time =
  QCheck.Test.make ~count:500 ~name:"units: tx_time r v = 8v/r seconds"
    QCheck.(pair positive positive) (fun (r, v) ->
      close (Time.to_secs (Rate.tx_time (Rate.bps r) (B.bytes v))) (8. *. v /. r))

(* --- sentinel contract ----------------------------------------------------- *)

let test_unknown_sentinel () =
  Alcotest.(check bool) "Time.unknown is unknown" false (Time.is_known Time.unknown);
  Alcotest.(check bool) "Rate.unknown is unknown" false (Rate.is_known Rate.unknown);
  Alcotest.(check bool) "Freq.unknown is unknown" false (Freq.is_known Freq.unknown);
  Alcotest.(check bool) "Time.zero is known" true (Time.is_known Time.zero);
  Alcotest.(check bool) "Rate.zero is known" true (Rate.is_known Rate.zero)

let test_exn_constructors () =
  let raises f = match f () with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "bps_exn 0 raises" true
    (raises (fun () -> Rate.bps_exn 0.));
  Alcotest.(check bool) "bps_exn inf raises" true
    (raises (fun () -> Rate.bps_exn Float.infinity));
  Alcotest.(check bool) "bps_exn accepts finite positive" true
    (Float.equal (Rate.to_bps (Rate.bps_exn 5.)) 5.)

let qtest = QCheck_alcotest.to_alcotest

let suite =
  [
    ( "units",
      [
        qtest prop_time_secs_roundtrip;
        qtest prop_rate_bps_roundtrip;
        qtest prop_freq_hz_roundtrip;
        qtest prop_bytes_roundtrip;
        qtest prop_of_float_roundtrip;
        qtest prop_time_ms_scaling;
        qtest prop_rate_mbps_scaling;
        qtest prop_bytes_bits_roundtrip;
        qtest prop_time_us_scaling;
        qtest prop_rate_gbps_scaling;
        qtest prop_time_ms_accessor;
        qtest prop_rate_mbps_accessor;
        qtest prop_time_add_is_float_add;
        qtest prop_scale_is_float_mul;
        qtest prop_compare_agrees_with_float;
        qtest prop_rate_tx_time;
        Alcotest.test_case "unknown/zero sentinels" `Quick test_unknown_sentinel;
        Alcotest.test_case "_exn constructors reject" `Quick test_exn_constructors;
      ] );
  ]
