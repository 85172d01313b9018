(* Tests for the experiment harness plumbing: tables, the registry, and the
   cheap analytic experiments (the heavyweight ones run in bench/main.exe). *)

module E = Nimbus_experiments
module Time = Units.Time
module Rate = Units.Rate

let test_table_render () =
  let t =
    E.Table.make ~title:"demo" ~header:[ "a"; "bee" ]
      ~notes:[ "a note" ]
      [ [ "1"; "2" ]; [ "333"; "4" ] ]
  in
  let out = E.Table.render t in
  Alcotest.(check bool) "has title" true
    (String.length out > 0
    && String.sub out 0 7 = "== demo");
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "has note" true (contains out "a note")

let test_table_csv () =
  let t =
    E.Table.make ~title:"x" ~header:[ "a"; "b" ] [ [ "1"; "with,comma" ] ]
  in
  Alcotest.(check string) "csv quoting" "a,b\n1,\"with,comma\"\n"
    (E.Table.to_csv t)

let test_table_formatters () =
  Alcotest.(check string) "mbps" "48.0" (E.Table.fmt_mbps 48e6);
  Alcotest.(check string) "ms" "12.5" (E.Table.fmt_ms 0.0125);
  Alcotest.(check string) "pct" "75%" (E.Table.fmt_pct 0.75);
  Alcotest.(check string) "nan" "-" (E.Table.fmt_mbps nan)

let test_registry_unique_ids () =
  let ids = E.Registry.ids in
  let sorted = List.sort_uniq compare ids in
  Alcotest.(check int) "no duplicate ids" (List.length ids)
    (List.length sorted);
  Alcotest.(check bool) "covers the paper" true (List.length ids >= 20)

let test_registry_find () =
  Alcotest.(check bool) "finds fig1" true (E.Registry.find "fig1" <> None);
  Alcotest.(check bool) "rejects junk" true (E.Registry.find "nope" = None)

let test_fig7_analytic () =
  (* fig7 is purely analytic, so run it end to end *)
  match E.Registry.find "fig7" with
  | None -> Alcotest.fail "fig7 missing"
  | Some e ->
    let tables = e.E.Registry.run E.Common.quick in
    Alcotest.(check int) "one table" 1 (List.length tables)

(* §3.1: every ẑ error sample compares ẑ and the cross traffic over the
   same one-second window, both baselined at 10 s where sampling starts, so
   no pattern's p95 exceeds the paper's 7.5% *)
let test_zest_p95 () =
  match E.Registry.find "zest" with
  | None -> Alcotest.fail "zest missing"
  | Some e ->
    List.iter
      (fun (t : E.Table.t) ->
        List.iter
          (fun row ->
            let p95 = List.nth row 3 in
            Alcotest.(check bool)
              (Printf.sprintf "%s p95 %s <= 7%%" (List.hd row) p95)
              true
              (Scanf.sscanf p95 "%d%%" (fun pct -> pct <= 7)))
          t.rows)
      (e.E.Registry.run E.Common.quick)

let test_common_link () =
  let l = E.Common.link ~mbps:96. ~rtt_ms:50. () in
  Alcotest.(check (float 0.001)) "mu" 96e6 (Rate.to_bps l.E.Common.mu);
  Alcotest.(check (float 1e-9)) "rtt" 0.05 (Time.to_secs l.E.Common.prop_rtt);
  let bn = (E.Common.setup ~seed:1 l).E.Common.bottleneck in
  (* 2 BDP of buffer at 96 Mbit/s x 50 ms = 1.2 MB *)
  Alcotest.(check int) "buffer bytes" 1_200_000
    (Nimbus_sim.Bottleneck.capacity_bytes bn)

let test_common_profiles () =
  Alcotest.(check bool) "quick shrinks" true
    (E.Common.scaled E.Common.quick 100. < 100.);
  Alcotest.(check (float 1e-9)) "full preserves" 100.
    (E.Common.scaled E.Common.full 100.);
  Alcotest.(check (float 1e-9)) "floor at 20s" 20.
    (E.Common.scaled E.Common.quick 30.)

let test_scheme_start () =
  let l = E.Common.link ~mbps:24. ~rtt_ms:50. () in
  let net = E.Common.setup ~seed:2 l in
  let engine = net.E.Common.engine in
  let r = (E.Common.nimbus ()).E.Common.start_flow net () in
  Alcotest.(check bool) "nimbus exposes mode" true
    (r.E.Common.in_competitive <> None);
  let r2 = E.Common.cubic.E.Common.start_flow net () in
  Alcotest.(check bool) "cubic has no mode" true
    (r2.E.Common.in_competitive = None);
  Nimbus_sim.Engine.run_until engine (Time.secs 5.);
  Alcotest.(check bool) "flows actually run" true
    (Nimbus_cc.Flow.received_bytes r.E.Common.flow > 0
    && Nimbus_cc.Flow.received_bytes r2.E.Common.flow > 0)

let suite =
  [ ( "experiments.table",
      [ Alcotest.test_case "render" `Quick test_table_render;
        Alcotest.test_case "csv" `Quick test_table_csv;
        Alcotest.test_case "formatters" `Quick test_table_formatters ] );
    ( "experiments.registry",
      [ Alcotest.test_case "unique ids" `Quick test_registry_unique_ids;
        Alcotest.test_case "find" `Quick test_registry_find;
        Alcotest.test_case "fig7 runs" `Quick test_fig7_analytic;
        Alcotest.test_case "zest p95 within the paper's 7.5%" `Quick
          test_zest_p95 ] );
    ( "experiments.common",
      [ Alcotest.test_case "link" `Quick test_common_link;
        Alcotest.test_case "profiles" `Quick test_common_profiles;
        Alcotest.test_case "scheme start" `Quick test_scheme_start ] ) ]
