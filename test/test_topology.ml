(* lib/sim/topology: the multi-bottleneck fabric.  The headline property is
   the pinned dumbbell trace — a traced one-link run must reproduce, byte
   for byte, the JSONL the paper's single-bottleneck wiring has always
   produced — plus multi-hop forwarding order, propagation timing, route
   validation, per-link/fabric conservation (qcheck over random chains),
   PIE under overload, and the parking-lot experiment at the 1000-flow acceptance
   scale. *)

module Trace = Nimbus_trace.Trace
module Engine = Nimbus_sim.Engine
module Bottleneck = Nimbus_sim.Bottleneck
module Qdisc = Nimbus_sim.Qdisc
module Packet = Nimbus_sim.Packet
module Rng = Nimbus_sim.Rng
module Topology = Nimbus_topology.Topology
module Flow = Nimbus_cc.Flow
module Nimbus = Nimbus_core.Nimbus
module Z_estimator = Nimbus_core.Z_estimator
module Source = Nimbus_traffic.Source
module E = Nimbus_experiments
module Time = Units.Time
module Rate = Units.Rate

(* --- pinned dumbbell trace ------------------------------------------------ *)

let bn_config ~trace =
  { (Bottleneck.Config.default ~rate:(Rate.bps 48e6)
       ~qdisc:(Qdisc.droptail ~capacity_bytes:600_000))
    with trace }

let wire_topology engine tr =
  let topo, route =
    Topology.dumbbell engine
      { bottleneck = bn_config ~trace:tr; prop_delay = Time.zero }
  in
  fun ~cc -> Flow.create_via topo ~route ~cc ~prop_rtt:(Time.ms 50.) ()

(* the Fig. 7 shape at test scale: one Nimbus flow, a Cubic flow joining
   mid-run, on the one-link topology *)
let traced_scenario () =
  let buf = Buffer.create 65536 in
  let tr = Trace.create ~mask:Trace.mask_all () in
  Trace.attach tr (`Buffer buf);
  let engine = Engine.create { trace = tr } in
  let start_flow = wire_topology engine tr in
  let nim =
    Nimbus.create
      { (Nimbus.Config.default ~mu:(Z_estimator.Mu.known (Rate.bps 48e6)))
        with seed = 11; trace = tr }
  in
  ignore (start_flow ~cc:(Nimbus.cc nim ~now:(fun () -> Engine.now engine)));
  Engine.schedule_at engine (Time.secs 8.) (fun () ->
      ignore (start_flow ~cc:(Nimbus_cc.Cubic.make ())));
  Engine.run_until engine (Time.secs 14.);
  Trace.close tr;
  Buffer.contents buf

(* Pinned from the last tree that still had a direct Engine+Bottleneck
   wiring next to the topology, where both produced this trace: any change
   to packet timing, event order or trace encoding on the one-link path
   shows up here. *)
let test_dumbbell_pinned_trace () =
  let jsonl = traced_scenario () in
  Alcotest.(check int) "trace length" 508_992 (String.length jsonl);
  Alcotest.(check string) "trace digest" "23b797489c405ab0f02da018be1e3d80"
    (Digest.to_hex (Digest.string jsonl))

(* --- builders -------------------------------------------------------------- *)

let chain engine n ~rate ~prop =
  let topo = Topology.create engine in
  let nodes =
    List.init (n + 1) (fun i ->
        Topology.add_node topo (Printf.sprintf "n%d" i))
  in
  let links =
    List.init n (fun i ->
        Topology.add_link topo
          ~src:(List.nth nodes i)
          ~dst:(List.nth nodes (i + 1))
          { bottleneck =
              Bottleneck.Config.default ~rate
                ~qdisc:(Qdisc.droptail ~capacity_bytes:1_000_000);
            prop_delay = prop })
  in
  (topo, nodes, links)

(* --- forwarding ------------------------------------------------------------ *)

let test_two_hop_fifo () =
  let engine = Engine.create Engine.Config.default in
  (* 12 Mbit/s: 1 ms per 1500 B packet *)
  let topo, _, links = chain engine 2 ~rate:(Rate.mbps 12.) ~prop:(Time.ms 2.) in
  let route = Topology.Route.of_links links in
  Alcotest.(check int) "two hops" 2 (Topology.Route.hops route);
  let seqs = ref [] in
  let ingress =
    Topology.attach topo ~route ~flow:5 ~sink:(fun pkt ->
        seqs := Packet.seq pkt :: !seqs)
  in
  for seq = 0 to 19 do
    ingress
      (Packet.make ~flow:5 ~seq ~size:1500 ~now:(Engine.now engine) ())
  done;
  Engine.run_until engine (Time.secs 1.);
  Alcotest.(check (list int)) "FIFO across both hops"
    (List.init 20 (fun i -> i))
    (List.rev !seqs);
  Alcotest.(check int) "fabric counted every ingress" 20
    (Topology.injected_packets topo);
  Alcotest.(check int) "fabric counted every terminal delivery" 20
    (Topology.completed_packets topo);
  Alcotest.(check int) "nothing left in transit" 0
    (Topology.in_transit_packets topo);
  Alcotest.(check (option string)) "conservation holds" None
    (Topology.conservation_check topo)

let test_prop_delay_timing () =
  let engine = Engine.create Engine.Config.default in
  let topo, _, links =
    chain engine 1 ~rate:(Rate.mbps 12.) ~prop:(Time.ms 10.)
  in
  let route = Topology.Route.of_links links in
  let arrival = ref Time.zero in
  let ingress =
    Topology.attach topo ~route ~flow:0 ~sink:(fun _ ->
        arrival := Engine.now engine)
  in
  ingress (Packet.make ~flow:0 ~seq:0 ~size:1500 ~now:(Engine.now engine) ());
  Engine.run_until engine (Time.secs 1.);
  (* 1 ms serialisation at 12 Mbit/s + 10 ms propagation *)
  Alcotest.(check (float 1e-9)) "serialisation + propagation" 0.011
    (Time.to_secs !arrival)

(* A packet crossing a 3-hop chain (1 Gbit/s, 1 ms per hop) allocates
   nothing: it is an immediate int, one [landed] handler per (link, flow)
   carries it over each propagation delay, and a link keeps its FIFO in a
   ring.  Words per packet-hop over 1500 packets, packet creation included:
   0.09 measured; ~1.7 when a packet was a 5-word record. *)
let test_chain_words_per_hop () =
  let engine = Engine.create Engine.Config.default in
  let topo, _, links = chain engine 3 ~rate:(Rate.gbps 1.) ~prop:(Time.ms 1.) in
  let ingress =
    Topology.attach topo ~route:(Topology.Route.of_links links) ~flow:0
      ~sink:ignore
  in
  (* one turn of the event wheel (256 slots of 256 µs): each batch reuses
     the slots the first one grew *)
  let step = Time.us 65_536. in
  let seq = ref 0 in
  (* 500 packets fit the chain's 1 MB buffers *)
  let batch () =
    for _ = 1 to 500 do
      incr seq;
      ingress
        (Packet.make ~flow:0 ~seq:!seq ~size:1500 ~now:(Engine.now engine) ())
    done;
    Engine.run_until engine (Time.add (Engine.now engine) step)
  in
  batch ();
  let before = Gc.minor_words () in
  for _ = 1 to 3 do
    batch ()
  done;
  let per_hop = (Gc.minor_words () -. before) /. 4500. in
  Alcotest.(check int) "every packet completed" 2000
    (Topology.completed_packets topo);
  if per_hop > 0.25 then
    Alcotest.failf "%.2f minor words per packet-hop (want <= 0.25)" per_hop

(* --- construction and route validation ------------------------------------- *)

let raises_invalid f =
  match f () with
  | _ -> false
  | exception Invalid_argument _ -> true

let test_route_validation () =
  let engine = Engine.create Engine.Config.default in
  let topo = Topology.create engine in
  let a = Topology.add_node topo "a" in
  let b = Topology.add_node topo "b" in
  let c = Topology.add_node topo "c" in
  let d = Topology.add_node topo "d" in
  let cfg =
    { Topology.Link.Config.bottleneck =
        Bottleneck.Config.default ~rate:(Rate.mbps 10.)
          ~qdisc:(Qdisc.droptail ~capacity_bytes:100_000);
      prop_delay = Time.zero }
  in
  let ab = Topology.add_link topo ~src:a ~dst:b cfg in
  let cd = Topology.add_link topo ~src:c ~dst:d cfg in
  Alcotest.(check bool) "empty route rejected" true
    (raises_invalid (fun () -> Topology.Route.of_links []));
  Alcotest.(check bool) "non-contiguous route rejected" true
    (raises_invalid (fun () -> Topology.Route.of_links [ ab; cd ]));
  Alcotest.(check bool) "self-loop link rejected" true
    (raises_invalid (fun () -> Topology.add_link topo ~src:a ~dst:a cfg));
  Alcotest.(check bool) "negative prop delay rejected" true
    (raises_invalid (fun () ->
         Topology.add_link topo ~src:b ~dst:c
           { cfg with prop_delay = Time.secs (-1.) }));
  (* a route made of another topology's links must not attach here *)
  let engine2 = Engine.create Engine.Config.default in
  let _, _, links2 = chain engine2 1 ~rate:(Rate.mbps 10.) ~prop:Time.zero in
  let foreign = Topology.Route.of_links links2 in
  Alcotest.(check bool) "foreign route rejected" true
    (raises_invalid (fun () ->
         Topology.attach topo ~route:foreign ~flow:0 ~sink:ignore));
  Alcotest.(check string) "link label" "a->b" (Topology.link_label ab)

(* --- conservation over random chains (qcheck) ------------------------------ *)

(* random small chains under mixed attached traffic: after any run, every
   per-link ledger and the fabric identity must balance.  All traffic goes
   through attach, so the fabric check applies. *)
let conservation_prop (nlinks, nsrc, seed) =
  let engine = Engine.create Engine.Config.default in
  let topo, _, links =
    chain engine nlinks
      ~rate:(Rate.mbps (6. +. float_of_int (seed mod 5)))
      ~prop:(Time.ms (float_of_int (seed mod 3)))
  in
  let rng = Rng.create seed in
  let full_route = Topology.Route.of_links links in
  (* one closed-loop flow end to end *)
  ignore
    (Flow.create_via topo ~route:full_route ~cc:(Nimbus_cc.Cubic.make ())
       ~prop_rtt:(Time.ms 20.) ());
  (* open-loop sources over random sub-routes *)
  for s = 0 to nsrc - 1 do
    let start = (seed + s) mod nlinks in
    let len = 1 + ((seed + s) mod (nlinks - start)) in
    let sub =
      Topology.Route.of_links
        (List.filteri (fun i _ -> i >= start && i < start + len) links)
    in
    if s mod 2 = 0 then
      ignore
        (Source.poisson_via topo ~route:sub ~rng:(Rng.split rng)
           ~rate:(Rate.mbps 4.) ())
    else ignore (Source.cbr_via topo ~route:sub ~rate:(Rate.mbps 4.) ())
  done;
  Engine.run_until engine (Time.secs 1.);
  (match Topology.conservation_check topo with
   | None -> ()
   | Some detail -> QCheck.Test.fail_reportf "conservation: %s" detail);
  List.for_all
    (fun l ->
      let b = Topology.link_bottleneck l in
      Bottleneck.offered_packets b
      = Bottleneck.delivered_packets b + Bottleneck.drops b
        + Bottleneck.queued_packets b)
    links

let test_conservation_qcheck =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:25
       ~name:"topology: per-link + fabric conservation on random chains"
       QCheck.(
         triple (int_range 1 5) (int_range 0 4) (int_range 0 10_000))
       conservation_prop)

(* --- PIE under overload ------------------------------------------------------ *)

(* 24 Mbit/s of CBR into a 12 Mbit/s PIE link for 3 s: 4.5 MB more than the
   link carries, against a 1 MB buffer.  PIE holds its 5 ms target by
   dropping early, so the standing queue stays far below the buffer, and
   every offered packet is delivered, dropped or still queued. *)
let test_pie_overload_drops_early () =
  let engine = Engine.create Engine.Config.default in
  let capacity_bytes = 1_000_000 in
  let topo, route =
    Topology.dumbbell engine
      (Topology.Link.Config.default ~rate:(Rate.mbps 12.)
         ~qdisc:
           (Qdisc.pie ~capacity_bytes ~target_delay:(Time.ms 5.)
              ~link_rate:(Rate.mbps 12.) ~rng:(Rng.create 3)))
  in
  let (_ : Source.t) = Source.cbr_via topo ~route ~rate:(Rate.mbps 24.) () in
  Engine.run_until engine (Time.secs 3.);
  let bn = Topology.link_bottleneck (List.hd (Topology.links topo)) in
  Alcotest.(check bool) "pressure shows up as drops" true
    (Bottleneck.drops bn > 0);
  if 10 * Bottleneck.qlen_bytes bn > capacity_bytes then
    Alcotest.failf "standing queue %d B: PIE should drop well before the \
                    %d B buffer fills" (Bottleneck.qlen_bytes bn)
      capacity_bytes;
  Alcotest.(check int) "offered = delivered + dropped + queued"
    (Bottleneck.offered_packets bn)
    (Bottleneck.delivered_packets bn + Bottleneck.drops bn
    + Bottleneck.queued_packets bn)

(* --- parking lot at acceptance scale --------------------------------------- *)

(* Per-link offered / delivered / drops and the fabric's injected and
   completed packets, pinned.  The 998 Cubic cross-flows keep RTO deadline
   timers on 10 ms grids that merge, so several timeouts can fall on one
   instant; they fire in the order the timers were armed (DESIGN.md §15).
   This is the tier-1 byte-identity oracle for that order. *)
let test_parking_lot_scale () =
  let p = E.Exp_parking_lot.scaled_params ~links:3 ~flows:1000 ~duration:2. () in
  let o = E.Exp_parking_lot.run_custom p in
  Alcotest.(check bool) "at least 1000 flows" true
    (o.E.Exp_parking_lot.flows >= 1000);
  Alcotest.(check int) "per-link + fabric conservation clean" 0
    o.E.Exp_parking_lot.violations;
  let per_link, fabric =
    match o.E.Exp_parking_lot.tables with
    | [ per_link; fabric ] -> (per_link, fabric)
    | ts -> Alcotest.failf "expected two tables, got %d" (List.length ts)
  in
  let column (t : E.Table.t) name =
    let rec index i = function
      | [] -> Alcotest.failf "no column %s" name
      | h :: rest -> if h = name then i else index (i + 1) rest
    in
    let i = index 0 t.header in
    List.map (fun row -> List.nth row i) t.rows
  in
  Alcotest.(check (list string)) "links"
    [ "n0->n1"; "n1->n2"; "n2->n3" ] (column per_link "link");
  Alcotest.(check (list string)) "offered" [ "14716"; "17135"; "7485" ]
    (column per_link "offered");
  Alcotest.(check (list string)) "delivered" [ "7999"; "7992"; "7453" ]
    (column per_link "delivered");
  Alcotest.(check (list string)) "drops" [ "6347"; "8744"; "0" ]
    (column per_link "drops");
  Alcotest.(check int) "delivered, all links" 23444
    o.E.Exp_parking_lot.delivered;
  let metric name =
    match List.find_opt (fun row -> List.hd row = name) fabric.rows with
    | Some [ _; v ] -> v
    | _ -> Alcotest.failf "no fabric row %s" name
  in
  Alcotest.(check string) "injected" "29970" (metric "injected pkts");
  Alcotest.(check string) "completed" "14054" (metric "completed pkts")

let test_parking_lot_registered () =
  Alcotest.(check bool) "parking_lot is in the registry" true
    (E.Registry.find "parking_lot" <> None)

let suite =
  [ ( "topology.dumbbell",
      [ Alcotest.test_case "pinned trace digest" `Quick
          test_dumbbell_pinned_trace ] );
    ( "topology.forwarding",
      [ Alcotest.test_case "two-hop FIFO" `Quick test_two_hop_fifo;
        Alcotest.test_case "propagation timing" `Quick test_prop_delay_timing;
        Alcotest.test_case "chain allocates ~the packet per hop" `Quick
          test_chain_words_per_hop
      ] );
    ( "topology.routes",
      [ Alcotest.test_case "validation" `Quick test_route_validation ] );
    ( "topology.conservation", [ test_conservation_qcheck ] );
    ( "topology.pie",
      [ Alcotest.test_case "overload drops early and conserves" `Quick
          test_pie_overload_drops_early ] );
    ( "topology.parking_lot",
      [ Alcotest.test_case "1000 flows, conservation" `Quick
          test_parking_lot_scale;
        Alcotest.test_case "registered" `Quick test_parking_lot_registered ]
    ) ]
