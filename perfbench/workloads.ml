(* The four benchmark workloads.  Each one is a closed-loop batch: a rep
   builds its scenario, runs it to the horizon, and returns what it cost
   and what it computed.  Traffic is wired only through Topology
   (Common.setup, Flow.create_via, Source.poisson_via), the path every
   experiment takes. *)

module Engine = Nimbus_sim.Engine
module Bottleneck = Nimbus_sim.Bottleneck
module Qdisc = Nimbus_sim.Qdisc
module Rng = Nimbus_sim.Rng
module Topology = Nimbus_topology.Topology
module Flow = Nimbus_cc.Flow
module Cubic = Nimbus_cc.Cubic
module Source = Nimbus_traffic.Source
module Invariant = Nimbus_metrics.Invariant
module Nimbus = Nimbus_core.Nimbus
module Z = Nimbus_core.Z_estimator
module Common = Nimbus_experiments.Common
module Sweep = Nimbus_experiments.Sweep
module Table = Nimbus_experiments.Table
module Parking = Nimbus_experiments.Exp_parking_lot
module Path_model = Nimbus_experiments.Path_model
module Time = Units.Time
module Rate = Units.Rate
module Freq = Units.Freq

type ctx = {
  seed : int;
  smoke : bool;  (** tiny sizes for the test suite *)
  meter : Meter.t option;  (** traced reps wrap every controller *)
}

(* Nimbus detection tallies and the mode timeline that goes into the
   digest *)
type modes = {
  timeline : Buffer.t;
  mutable detections : int;
  mutable switches : int;
}

let on_detection modes ~flow =
  let last = ref Nimbus.Delay in
  Some
    (fun (d : Nimbus.detection) ->
      modes.detections <- modes.detections + 1;
      match (!last, d.d_mode) with
      | Nimbus.Delay, Nimbus.Delay | Competitive, Competitive -> ()
      | _, m ->
        last := m;
        modes.switches <- modes.switches + 1;
        Printf.bprintf modes.timeline "mode %d %.9f %s\n" flow
          (Time.to_secs d.d_time) (Nimbus.mode_to_string m))

let cc ctx engine alg c =
  match ctx.meter with None -> c | Some m -> Meter.wrap m ~engine alg c

(* What a measured interval cost: wall time and the GC's view of it *)
type cost = {
  wall : float;
  words : float;  (** minor words allocated *)
  minor_gcs : int;
  major_gcs : int;
  promoted : float;  (** words promoted to the major heap *)
}

let measure f =
  let s0 = Gc.quick_stat () in
  let w0 = Gc.minor_words () in
  let t0 = Meter.now () in
  let x = f () in
  let wall = Meter.since t0 in
  let words = Gc.minor_words () -. w0 in
  let s1 = Gc.quick_stat () in
  ( x,
    { wall; words; minor_gcs = s1.minor_collections - s0.minor_collections;
      major_gcs = s1.major_collections - s0.major_collections;
      promoted = s1.promoted_words -. s0.promoted_words } )

(* One rep's cost and outcome.  [pkts] counts packets that finished
   serialisation on any link; it is the unit every per-packet figure
   divides by. *)
type rep = {
  cost : cost;
  pkts : int;
  setups : float list;  (** wall seconds from build start to first run *)
  attempted : int;
  failed : int;
  digest : string;  (** MD5 of the simulated outcome *)
  offered : int;
  drops : int;
  completed : int;  (** packets leaving a route's last hop *)
  detections : int;
  switches : int;
}

let digest_of b = Digest.to_hex (Digest.string (Buffer.contents b))

(* --- long-lived scenarios ------------------------------------------------- *)

type scenario = {
  engine : Engine.t;
  topo : Topology.t;
  horizon : Time.t;
  flows : Flow.t list;
  violations : unit -> int;  (** invariant-monitor count, if one runs *)
}

let add_cost a b =
  { wall = a.wall +. b.wall; words = a.words +. b.words;
    minor_gcs = a.minor_gcs + b.minor_gcs;
    major_gcs = a.major_gcs + b.major_gcs;
    promoted = a.promoted +. b.promoted }

(* A rep runs [instances] independent scenarios one after another, each
   built by [build ctx modes i] after a Gc.compact and dropped before the
   next; costs and ledgers add up, and the digest covers them all. *)
let run_scenario ?(instances = 1) ctx build =
  let modes = { timeline = Buffer.create 256; detections = 0; switches = 0 } in
  let b = Buffer.create 1024 in
  let cost = ref None and setups = ref [] and failed = ref 0 in
  let pkts = ref 0 and offered = ref 0 and drops = ref 0 in
  let completed = ref 0 in
  for i = 0 to instances - 1 do
    Gc.compact ();
    let t0 = Meter.now () in
    let s = build ctx modes i in
    setups := Meter.since t0 :: !setups;
    let (), c = measure (fun () -> Engine.run_until s.engine s.horizon) in
    cost := Some (match !cost with None -> c | Some acc -> add_cost acc c);
    List.iter
      (fun l ->
        let bn = Topology.link_bottleneck l in
        pkts := !pkts + Bottleneck.delivered_packets bn;
        offered := !offered + Bottleneck.offered_packets bn;
        drops := !drops + Bottleneck.drops bn;
        Printf.bprintf b "link %d %d %d %d\n"
          (Bottleneck.offered_packets bn)
          (Bottleneck.delivered_packets bn)
          (Bottleneck.drops bn)
          (Bottleneck.queued_packets bn))
      (Topology.links s.topo);
    List.iter
      (fun f ->
        Printf.bprintf b "flow %d %d\n" (Flow.id f) (Flow.received_bytes f))
      s.flows;
    completed := !completed + Topology.completed_packets s.topo;
    let violations =
      s.violations ()
      + match Topology.conservation_check s.topo with None -> 0 | Some _ -> 1
    in
    Printf.bprintf b "violations %d\n" violations;
    if violations > 0 then incr failed
  done;
  Buffer.add_buffer b modes.timeline;
  { cost = Option.get !cost; pkts = !pkts; setups = List.rev !setups;
    attempted = instances; failed = !failed; digest = digest_of b;
    offered = !offered; drops = !drops; completed = !completed;
    detections = modes.detections; switches = modes.switches }

(* 96 Mbit/s, 50 ms, 2xBDP droptail: the paper's emulated bottleneck at
   twice its usual rate, 8000 packets per simulated second *)
let dumbbell_link = Common.link ~mbps:96. ~rtt_ms:50. ~buffer_bdp:2. ()

let cubic_flow ctx (net : Common.net) ?start () =
  Flow.create_via net.topo ~route:net.route
    ~cc:(cc ctx net.engine Meter.Cubic (Cubic.make ()))
    ~prop_rtt:net.net_link.prop_rtt ?start ()

(* packet path only: Engine/Wheel, Bottleneck, Flow and Cubic, no detector *)
let dumbbell_cubic ctx _modes =
  let net = Common.setup ~seed:ctx.seed dumbbell_link in
  let flows =
    List.init 4 (fun j ->
        cubic_flow ctx net ~start:(Time.ms (float_of_int (j * 50))) ())
  in
  ignore
    (Source.poisson_via net.topo ~route:net.route ~rng:(Rng.split net.rng)
       ~rate:(Rate.mbps 24.) ());
  { engine = net.engine; topo = net.topo;
    horizon = Time.secs (if ctx.smoke then 2. else 30.); flows;
    violations = (fun () -> 0) }

(* Detector-bound: four multi-flow Nimbus flows start as watchers and elect
   a pulser among themselves, with a Cubic flow present for the middle third
   of the run.  Until the first election every watcher runs a full spectrum
   on every tick, and the time to that election is exponential in the
   election draws, tens of simulated seconds on average: the minor words per
   packet of one 45 s instance spread by 23% (interquartile) over seeds
   1-12.  A rep therefore runs [watchers_instances] short instances, each
   with its own seed (spread 4.9%); most of their time passes before the
   first election, so modes switch in few of them. *)
let watchers_instances ctx = if ctx.smoke then 1 else 8

let nimbus_watchers ctx modes i =
  let seed = (ctx.seed * 1000) + i in
  let net = Common.setup ~seed dumbbell_link in
  let engine = net.engine and l = net.net_link in
  let nimbus_flow k =
    let nim =
      Nimbus.create
        { (Nimbus.Config.default ~mu:(Z.Mu.known l.mu)) with
          multi_flow = true; seed = (seed * 1009) + k;
          on_detection = on_detection modes ~flow:((4 * i) + k) }
    in
    Flow.create_via net.topo ~route:net.route
      ~cc:
        (cc ctx engine Meter.Nimbus
           (Nimbus.cc nim ~now:(fun () -> Engine.now engine)))
      ~prop_rtt:l.prop_rtt
      ~start:(Time.ms (float_of_int (k * 100)))
      ()
  in
  let nims = List.init 4 nimbus_flow in
  ignore
    (Source.poisson_via net.topo ~route:net.route ~rng:(Rng.split net.rng)
       ~rate:(Rate.mbps 16.) ());
  let horizon = if ctx.smoke then 9. else 15. in
  let cross = cubic_flow ctx net ~start:(Time.secs (horizon /. 3.)) () in
  Engine.schedule_at engine
    (Time.secs (2. *. horizon /. 3.))
    (fun () -> Flow.apply cross Stop);
  { engine; topo = net.topo; horizon = Time.secs horizon;
    flows = nims @ [ cross ]; violations = (fun () -> 0) }

let parking_params ctx =
  if ctx.smoke then
    Parking.scaled_params ~links:3 ~flows:30 ~duration:1. ~seed:ctx.seed ()
  else Parking.scaled_params ~links:3 ~flows:1000 ~duration:5. ~seed:ctx.seed ()

(* The scenario Exp_parking_lot.run_custom runs, built in the same order so
   every RNG draw and event lands where it does there ([parking_matches]
   checks the ledgers agree).  Owning the builder lets the benchmark time
   set-up apart from the run and wrap each controller. *)
let parking_build (p : Parking.params) ctx modes =
  let engine = Engine.create Engine.Config.default in
  let rng = Rng.create p.seed in
  let mu = Rate.mbps p.mbps in
  let prop_rtt = Time.ms p.rtt_ms in
  let capacity_bytes =
    max (4 * 1500)
      (int_of_float
         (Rate.to_bps mu *. Time.to_secs prop_rtt *. p.buffer_bdp /. 8.))
  in
  let topo = Topology.create engine in
  let nodes =
    Array.init (p.links + 1) (fun i ->
        Topology.add_node topo (Printf.sprintf "n%d" i))
  in
  let links =
    Array.init p.links (fun i ->
        Topology.add_link topo ~src:nodes.(i) ~dst:nodes.(i + 1)
          { bottleneck =
              Bottleneck.Config.default ~rate:mu
                ~qdisc:(Qdisc.droptail ~capacity_bytes);
            prop_delay = Time.ms p.prop_ms })
  in
  let hop_route i = Topology.Route.of_links [ links.(i) ] in
  let pair_route i = Topology.Route.of_links [ links.(i); links.(i + 1) ] in
  let nims =
    List.concat
      (List.init p.links (fun i ->
           List.init p.nimbus_per_link (fun j ->
               let multi = p.nimbus_per_link > 1 in
               let k = (i * p.nimbus_per_link) + j in
               let nim =
                 Nimbus.create
                   { (Nimbus.Config.default ~mu:(Z.Mu.known mu)) with
                     delay = (if multi then `Copa_default else `Basic_delay);
                     multi_flow = multi;
                     seed = 100 + (i * 17) + (j * 7);
                     on_detection = on_detection modes ~flow:k }
               in
               Flow.create_via topo ~route:(hop_route i)
                 ~cc:
                   (cc ctx engine Meter.Nimbus
                      (Nimbus.cc nim ~now:(fun () -> Engine.now engine)))
                 ~prop_rtt
                 ~start:(Time.ms (float_of_int ((i + j) * 10)))
                 ())))
  in
  let cubics =
    List.concat
      (List.init (p.links - 1) (fun i ->
           List.init p.elastic_cross (fun j ->
               Flow.create_via topo ~route:(pair_route i)
                 ~cc:(cc ctx engine Meter.Cubic (Cubic.make ()))
                 ~prop_rtt
                 ~start:(Time.ms (float_of_int (((j mod 50) * 10) + (i * 3))))
                 ())))
  in
  for i = 0 to p.links - 2 do
    ignore
      (Source.poisson_via topo ~route:(pair_route i) ~rng:(Rng.split rng)
         ~rate:(Rate.bps (Rate.to_bps mu *. p.inelastic_frac))
         ())
  done;
  let monitor =
    Invariant.create engine
      ~bottlenecks:
        (Array.to_list
           (Array.map
              (fun l -> (Topology.link_label l, Topology.link_bottleneck l))
              links))
      ()
  in
  Invariant.add_check monitor ~name:"topology-conservation" (fun () ->
      Topology.conservation_check topo);
  (* run_custom's 100 ms queue-delay sampler: read-only, but part of the
     experiment's cost (it adds 9% to the minor words per packet) *)
  let qd_sum = Array.make p.links 0. in
  Engine.every engine ~dt:(Time.ms 100.) (fun () ->
      Array.iteri
        (fun i l ->
          let b = Topology.link_bottleneck l in
          qd_sum.(i) <- qd_sum.(i) +. Time.to_secs (Bottleneck.queue_delay b))
        links);
  { engine; topo; horizon = Time.secs p.duration; flows = nims @ cubics;
    violations = (fun () -> Invariant.count monitor) }

(* many flows, multi-hop, large heap *)
let parking_lot ctx modes = parking_build (parking_params ctx) ctx modes

(* Per-link (drops, offered, delivered) of [run_custom p] against the same
   ledgers of the benchmark's builder: equal means the benchmark measures
   the scenario users run.  [run_custom]'s first table has one row per link
   with those counts in columns 3, 5 and 6. *)
let parking_matches (p : Parking.params) =
  let reference =
    match (Parking.run_custom p).tables with
    | t :: _ ->
      List.map
        (fun row -> (List.nth row 3, List.nth row 5, List.nth row 6))
        t.Table.rows
    | [] -> []
  in
  let ctx = { seed = p.seed; smoke = true; meter = None } in
  let modes = { timeline = Buffer.create 16; detections = 0; switches = 0 } in
  let s = parking_build p ctx modes in
  Engine.run_until s.engine s.horizon;
  let ours =
    List.map
      (fun l ->
        let b = Topology.link_bottleneck l in
        ( string_of_int (Bottleneck.drops b),
          string_of_int (Bottleneck.offered_packets b),
          string_of_int (Bottleneck.delivered_packets b) ))
      (Topology.links s.topo)
  in
  reference <> [] && List.equal ( = ) reference ours

(* --- the fleet sweep ------------------------------------------------------ *)

(* The schemes `nimbus_cli sweep --schemes nimbus,cubic` runs.  Traced reps
   use copies whose controllers are wrapped; the digest check against the
   plain reps shows the copies simulate the same thing. *)
let sweep_schemes ctx modes =
  match ctx.meter with
  | None -> [ Common.nimbus ~estimate_mu:true (); Common.cubic ]
  | Some _ ->
    let nimbus net ?start () =
      let engine = net.Common.engine in
      let nim =
        Nimbus.create
          { (Nimbus.Config.default ~mu:(Z.Mu.estimator ())) with
            delay = `Basic_delay; competitive = `Cubic; pulse_frac = 0.25;
            fp_competitive = Freq.hz 5.; fp_delay = Freq.hz 6.;
            multi_flow = false; seed = 1;
            on_detection = on_detection modes ~flow:0 }
      in
      let flow =
        Flow.create_via net.topo ~route:net.route
          ~cc:
            (cc ctx engine Meter.Nimbus
               (Nimbus.cc nim ~now:(fun () -> Engine.now engine)))
          ~prop_rtt:net.net_link.prop_rtt ?start ()
      in
      { Common.flow;
        in_competitive = Some (fun () -> Nimbus.mode nim = Nimbus.Competitive);
        nimbus = Some nim }
    in
    let cubic net ?start () =
      { Common.flow = cubic_flow ctx net ?start (); in_competitive = None;
        nimbus = None }
    in
    [ { Common.scheme_name = "nimbus"; start_flow = nimbus };
      { Common.scheme_name = "cubic"; start_flow = cubic } ]

(* The swept population: the first four paths of Sweep's own sampler, drawn
   until they hold one lossy, one policed and two buffered paths of middling
   rate and WAN load, with summed rate and RTT near four times the
   population means.  Paths differ in cost per packet (131-253 minor
   words/pkt and 127k-572k pkts/s per case) and a case's peak heap follows
   its WAN background (about 3.5 MB per Mbit/s), so four paths drawn freely
   measured which paths were drawn: over seeds 1-10 the minor words per
   packet of a rep spread by 8.4% with only the kinds fixed, and the peak
   heap by 38% with the sums held too.  These bounds bring them to 2.8% and
   9% in 20 s runs. *)
let sweep_population = 4

(* each path: 40-80 Mbit/s with 19-23 Mbit/s of WAN background *)
let path_ok (p : Path_model.t) =
  let wan = p.mbps *. p.wan_load in
  p.mbps >= 40. && p.mbps <= 80. && wan >= 19. && wan <= 23.

let population_ok paths =
  let n = float_of_int sweep_population in
  let sum f = List.fold_left (fun acc p -> acc +. f p) 0. paths in
  let near f ~mean ~tol = Float.abs (sum f -. (n *. mean)) <= n *. tol in
  List.equal String.equal
    (List.sort String.compare (List.map Path_model.kind paths))
    (List.init (sweep_population - 2) (fun _ -> "buffered")
    @ [ "lossy"; "policed" ])
  && near (fun p -> p.Path_model.mbps) ~mean:60. ~tol:5.
  && near (fun p -> p.Path_model.rtt_ms) ~mean:70. ~tol:5.

(* the first [sweep_population] paths of sampler seed [s], if each is ok *)
let draw s =
  let sampler = Path_model.sampler ~seed:s in
  let rec go k acc =
    if k = 0 then Some (List.rev acc)
    else
      let p = Path_model.next sampler in
      if path_ok p then go (k - 1) (p :: acc) else None
  in
  go sweep_population []

(* the sampler seed: the first of [seed + j * 1_000_003], j = 0, 1, ...,
   whose population qualifies (10^5-10^7 candidates, most rejected at their
   first path; at most half a second) *)
let population_seed =
  let memo = Hashtbl.create 1 in
  fun seed ->
    match Hashtbl.find_opt memo seed with
    | Some s -> s
    | None ->
      let rec go j =
        let s = seed + (j * 1_000_003) in
        match draw s with
        | Some paths when population_ok paths -> s
        | _ -> go (j + 1)
      in
      let s = go 0 in
      Hashtbl.replace memo seed s;
      s

(* the smoke test runs the population's first path only *)
let sweep_paths ctx = if ctx.smoke then 1 else sweep_population

let sweep_inputs ctx =
  let seed = population_seed ctx.seed in
  Printf.sprintf "sampler seed %d" seed
  :: List.map Path_model.describe
       (Path_model.sample ~count:(sweep_paths ctx) ~seed)

(* Sweep.run as `nimbus_cli sweep` runs it, on the population above: quick
   profile, no pool, no checkpoint, no triage, no watchdog (which would
   make it wall-clock dependent).

   Each scheme is observed on its way in to capture the case's network, and
   the first case of a shard times its set-up from the end of the previous
   shard ([~log] fires once per one-path shard). *)
let path_sweep ctx =
  let modes = { timeline = Buffer.create 16; detections = 0; switches = 0 } in
  let b = Buffer.create 1024 in
  let pkts = ref 0 and offered = ref 0 in
  let drops = ref 0 and completed = ref 0 in
  (* a case's ledgers are read when the next case starts (cases run one
     after another), so no finished case stays reachable *)
  let current = ref None in
  let settle () =
    Option.iter
      (fun (n : Common.net) ->
        let bn = n.bottleneck in
        pkts := !pkts + Bottleneck.delivered_packets bn;
        offered := !offered + Bottleneck.offered_packets bn;
        drops := !drops + Bottleneck.drops bn;
        completed := !completed + Topology.completed_packets n.topo;
        Printf.bprintf b "case %d %d\n" (Bottleneck.delivered_packets bn)
          (Bottleneck.drops bn))
      !current;
    current := None
  in
  let setups = ref [] in
  let mark = ref (Meter.now ()) and shard_start = ref true in
  let observe (sch : Common.scheme) =
    { sch with
      start_flow =
        (fun net ?start () ->
          settle ();
          let r = sch.start_flow net ?start () in
          if !shard_start then begin
            setups := Meter.since !mark :: !setups;
            shard_start := false
          end;
          current := Some net;
          r) }
  in
  let schemes = sweep_schemes ctx modes in
  let cfg =
    Sweep.config ~paths:(sweep_paths ctx) ~seed:(population_seed ctx.seed)
      ~schemes:(List.map observe schemes) ~profile:Common.quick ~shard_size:1
      ~budget:0. ~triage_k:0
      ~log:(fun _ ->
        mark := Meter.now ();
        shard_start := true)
      ()
  in
  Common.clear_crashes ();
  Gc.compact ();
  let o, cost =
    measure (fun () ->
        mark := Meter.now ();
        Sweep.run cfg)
  in
  settle ();
  List.iter (fun t -> Buffer.add_string b (Table.render t)) o.tables;
  Printf.bprintf b "failures %d\n" o.failures;
  { cost; pkts = !pkts; setups = List.rev !setups;
    attempted = cfg.sw_paths * List.length schemes; failed = o.failures;
    digest = digest_of b; offered = !offered; drops = !drops;
    completed = !completed; detections = modes.detections;
    switches = modes.switches }

type t = {
  name : string;
  run : ctx -> rep;
  check : ctx -> bool;  (** run once before the reps *)
  inputs : ctx -> string list;  (** what the seed drew, for the log *)
}

let always _ = true

let single build ctx modes _ = build ctx modes

let all =
  [ { name = "dumbbell_cubic";
      run = (fun ctx -> run_scenario ctx (single dumbbell_cubic));
      check = always; inputs = (fun _ -> []) };
    { name = "nimbus_watchers";
      run =
        (fun ctx ->
          run_scenario ~instances:(watchers_instances ctx) ctx nimbus_watchers);
      check = always; inputs = (fun _ -> []) };
    { name = "parking_lot_1k";
      run = (fun ctx -> run_scenario ctx (single parking_lot));
      check =
        (fun ctx -> parking_matches (parking_params { ctx with smoke = true }));
      inputs = (fun _ -> []) };
    { name = "path_sweep"; run = path_sweep; check = always;
      inputs = sweep_inputs } ]

let find name = List.find_opt (fun w -> String.equal w.name name) all
