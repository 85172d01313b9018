(* Parking lot: K bottleneck links in a chain, each carrying its own Nimbus
   population, interfering through shared cross traffic — elastic (cubic)
   flows and inelastic (poisson) sources spanning adjacent link pairs.  The
   first multi-bottleneck experiment: everything rides the topology fabric
   (routes via Topology.attach), so the invariant monitor audits packet
   conservation per link AND across the fabric, and the whole thing scales
   to thousands of flows (the CI topology-smoke job runs through
   [run_custom]). *)

module Engine = Nimbus_sim.Engine
module Bottleneck = Nimbus_sim.Bottleneck
module Qdisc = Nimbus_sim.Qdisc
module Rng = Nimbus_sim.Rng
module Topology = Nimbus_topology.Topology
module Flow = Nimbus_cc.Flow
module Source = Nimbus_traffic.Source
module Invariant = Nimbus_metrics.Invariant
module Nimbus = Nimbus_core.Nimbus
module Z = Nimbus_core.Z_estimator
module Time = Units.Time
module Rate = Units.Rate

let id = "parking_lot"

let title = "Parking lot: Nimbus populations on chained bottlenecks"

type params = {
  links : int;
  mbps : float;
  rtt_ms : float;
  prop_ms : float;
  buffer_bdp : float;
  nimbus_per_link : int;
  elastic_cross : int;
  inelastic_frac : float;
  duration : float;
  seed : int;
}

let default_params =
  { links = 3; mbps = 48.; rtt_ms = 50.; prop_ms = 2.; buffer_bdp = 2.0;
    nimbus_per_link = 2; elastic_cross = 2; inelastic_frac = 0.15;
    duration = 60.; seed = 42 }

(* CLI / CI entry point: [flows] is the total congestion-
   controlled flow count (one Nimbus per link, the rest elastic cross
   traffic); rates stay per-link so the per-flow share shrinks as the fleet
   grows — the stress is queue contention, not byte volume *)
let scaled_params ?(mbps = 48.) ?(duration = 5.) ?(seed = 42) ~links ~flows ()
    =
  if links < 2 then invalid_arg "Exp_parking_lot: links must be >= 2";
  if flows < links then invalid_arg "Exp_parking_lot: flows must be >= links";
  if not (mbps > 0. && mbps <= Common.max_link_mbps) then
    invalid_arg
      (Printf.sprintf "Exp_parking_lot: rate must be in (0, %g] Mbit/s (got %g)"
         Common.max_link_mbps mbps);
  if not (Float.is_finite duration && duration > 0.) then
    invalid_arg
      (Printf.sprintf
         "Exp_parking_lot: duration must be finite and > 0 (got %g)" duration);
  { default_params with
    links; mbps; duration; seed; nimbus_per_link = 1;
    elastic_cross = (flows - links + (links - 1) - 1) / (links - 1) }

let total_flows p =
  (p.links * p.nimbus_per_link) + ((p.links - 1) * p.elastic_cross)

type outcome = {
  tables : Table.t list;
  violations : int;
  report : string;
  delivered : int;
  flows : int;
}

let run_custom ?(trace = Nimbus_trace.Trace.disabled) p =
  if p.links < 2 then invalid_arg "Exp_parking_lot: links must be >= 2";
  if p.nimbus_per_link < 1 then
    invalid_arg "Exp_parking_lot: nimbus_per_link must be >= 1";
  let engine = Engine.create { trace } in
  let rng = Rng.create p.seed in
  let mu = Rate.mbps p.mbps in
  let prop_rtt = Time.ms p.rtt_ms in
  let capacity_bytes =
    max (4 * 1500)
      (int_of_float
         (Rate.to_bps mu *. Time.to_secs prop_rtt *. p.buffer_bdp /. 8.))
  in
  (* the chain: n0 -> n1 -> ... -> nK, one bottleneck per hop *)
  let topo = Topology.create engine in
  let nodes =
    List.init (p.links + 1) (fun i ->
        Topology.add_node topo (Printf.sprintf "n%d" i))
  in
  let node i = List.nth nodes i in
  let links =
    List.init p.links (fun i ->
        Topology.add_link topo ~src:(node i) ~dst:(node (i + 1))
          { bottleneck =
              { (Bottleneck.Config.default ~rate:mu
                   ~qdisc:(Qdisc.droptail ~capacity_bytes))
                with trace };
            prop_delay = Time.ms p.prop_ms })
  in
  let link i = List.nth links i in
  let hop_route i = Topology.Route.of_links [ link i ] in
  let pair_route i = Topology.Route.of_links [ link i; link (i + 1) ] in
  (* per-link Nimbus populations, each confined to its own hop *)
  let nims =
    List.concat
      (List.init p.links (fun i ->
           List.init p.nimbus_per_link (fun j ->
               let multi = p.nimbus_per_link > 1 in
               let nim =
                 Nimbus.create
                   { (Nimbus.Config.default ~mu:(Z.Mu.known mu)) with
                     delay = (if multi then `Copa_default else `Basic_delay);
                     multi_flow = multi;
                     seed = 100 + (i * 17) + (j * 7);
                     trace }
               in
               let flow =
                 Flow.create_via topo ~route:(hop_route i)
                   ~cc:(Nimbus.cc nim ~now:(fun () -> Engine.now engine))
                   ~prop_rtt
                   ~start:(Time.ms (float_of_int ((i + j) * 10)))
                   ()
               in
               (i, nim, flow))))
  in
  (* elastic cross traffic: cubic flows spanning adjacent link pairs, with
     staggered starts so the fleet does not slow-start in lockstep *)
  let cubics =
    List.concat
      (List.init (p.links - 1) (fun i ->
           List.init p.elastic_cross (fun j ->
               let flow =
                 Flow.create_via topo ~route:(pair_route i)
                   ~cc:(Nimbus_cc.Cubic.make ()) ~prop_rtt
                   ~start:
                     (Time.ms (float_of_int (((j mod 50) * 10) + (i * 3))))
                   ()
               in
               (i, flow))))
  in
  (* inelastic cross traffic: one poisson source per pair *)
  List.iteri
    (fun i () ->
      ignore
        (Source.poisson_via topo ~route:(pair_route i) ~rng:(Rng.split rng)
           ~rate:(Rate.bps (Rate.to_bps mu *. p.inelastic_frac))
           ()))
    (List.init (p.links - 1) (fun _ -> ()));
  (* invariant monitor: per-link conservation ledgers plus the fabric-level
     identity *)
  let monitor = Common.audit topo in
  (* per-link queue-delay means, sampled on a 100 ms tick *)
  let qd_sum = Array.make p.links 0. in
  let qd_n = ref 0 in
  Engine.every engine ~dt:(Time.ms 100.) (fun () ->
      incr qd_n;
      List.iteri
        (fun i l ->
          qd_sum.(i) <-
            qd_sum.(i)
            +. Time.to_secs
                 (Bottleneck.queue_delay (Topology.link_bottleneck l)))
        links);
  Engine.run_until engine (Time.secs p.duration);
  let bn i = Topology.link_bottleneck (link i) in
  let link_rows =
    List.init p.links (fun i ->
        let b = bn i in
        let util =
          Time.to_secs (Bottleneck.busy_time b) /. p.duration
        in
        let nim_tput =
          8.
          *. float_of_int
               (List.fold_left
                  (fun acc (li, _, f) ->
                    if li = i then acc + Flow.received_bytes f else acc)
                  0 nims)
          /. p.duration
        in
        let delay_mode =
          List.length
            (List.filter
               (fun (li, nim, _) -> li = i && Nimbus.mode nim = Nimbus.Delay)
               nims)
        in
        [ Topology.link_label (link i);
          Table.fmt_pct util;
          Table.fmt_ms (qd_sum.(i) /. float_of_int (max 1 !qd_n));
          string_of_int (Bottleneck.drops b);
          (* [marks]: no queue discipline marks packets; the column stays
             while perfbench reads this table's columns by position *)
          "0";
          string_of_int (Bottleneck.offered_packets b);
          string_of_int (Bottleneck.delivered_packets b);
          string_of_int (Bottleneck.queued_packets b);
          Table.fmt_mbps nim_tput;
          Printf.sprintf "%d/%d" delay_mode p.nimbus_per_link ])
  in
  let elastic_bytes =
    List.fold_left (fun acc (_, f) -> acc + Flow.received_bytes f) 0 cubics
  in
  let delivered =
    List.fold_left
      (fun acc l ->
        acc + Bottleneck.delivered_packets (Topology.link_bottleneck l))
      0 links
  in
  let conservation =
    match Topology.conservation_check topo with
    | None -> "ok"
    | Some detail -> detail
  in
  let tables =
    [ Table.make ~title:(title ^ " — per link")
        ~header:
          [ "link"; "util"; "qdelay"; "drops"; "marks"; "offered";
            "delivered"; "queued"; "nimbus tput"; "delay-mode" ]
        ~notes:
          [ "each link carries its own Nimbus population; cubic+poisson \
             cross traffic spans adjacent link pairs, so neighbouring \
             populations interfere through shared queues" ]
        link_rows;
      Table.make ~title:(title ^ " — fabric")
        ~header:[ "metric"; "value" ]
        ~notes:
          [ "conservation: per link offered = delivered + drops + queued, \
             and fabric-wide injected/completed/in-transit balance \
             (audited every 10 ms by the invariant monitor)" ]
        [ [ "links"; string_of_int p.links ];
          [ "flows"; string_of_int (total_flows p) ];
          [ "injected pkts"; string_of_int (Topology.injected_packets topo) ];
          [ "completed pkts";
            string_of_int (Topology.completed_packets topo) ];
          [ "in transit"; string_of_int (Topology.in_transit_packets topo) ];
          [ "elastic cross tput";
            Table.fmt_mbps (8. *. float_of_int elastic_bytes /. p.duration) ];
          [ "conservation"; conservation ];
          [ "invariant violations"; string_of_int (Invariant.count monitor) ]
        ] ]
  in
  { tables; violations = Invariant.count monitor;
    report = Invariant.report monitor; delivered; flows = total_flows p }

let run (p : Common.profile) =
  (run_custom
     { default_params with duration = Common.scaled p 60. })
    .tables
