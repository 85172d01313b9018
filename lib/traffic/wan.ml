module Engine = Nimbus_sim.Engine
module Topology = Nimbus_topology.Topology
module Rng = Nimbus_sim.Rng
module Flow = Nimbus_cc.Flow
module Cubic = Nimbus_cc.Cubic
module Time = Units.Time
module Rate = Units.Rate
module B = Units.Bytes

let elastic_threshold_bytes = 10 * 1500

(* uniform per-flow RTT jitter, ± fraction *)
let rtt_jitter_frac = 0.2

(* cap on simultaneously active cross-flows *)
let max_concurrent = 512

(* Two heavy-tailed size mixtures (lognormal "mice" body + Pareto "elephant"
   tail), both calibrated against wide-area measurements but emphasising
   different regimes of the same reality:

   - [`Churny]: 90% mice (median ~6 KB) + 10% elephants from 30 KB, shape
     1.3.  High flow-arrival churn with many overlapping mid-size flows --
     the regime behind the paper's throughput/delay/FCT comparisons.
   - [`Elephant]: 99.5% small mice (median ~4 KB) + 0.5% elephants from
     2 MB, shape 1.05.  Almost all bytes ride in a sparse stream of
     multi-second flows, so the trace alternates between elastic-dominated
     and mice-only periods -- the regime behind the paper's Fig. 12
     detector-vs-ground-truth experiment. *)
type profile =
  [ `Churny
  | `Elephant
  ]

type mixture = {
  mice_prob : float;
  lognormal_mu : float;
  lognormal_sigma : float;
  pareto_scale : float;
  pareto_shape : float;
  size_cap : float;
}

let mixture_of_profile = function
  | `Churny ->
    { mice_prob = 0.9; lognormal_mu = log 6000.; lognormal_sigma = 1.2;
      pareto_scale = 30_000.; pareto_shape = 1.3; size_cap = 50_000_000. }
  | `Elephant ->
    { mice_prob = 0.995; lognormal_mu = log 4000.; lognormal_sigma = 0.8;
      pareto_scale = 2_000_000.; pareto_shape = 1.05;
      size_cap = 500_000_000. }

type record = {
  flow : Flow.t;
  size : int;
  elastic : bool;
  started : float;
}

(* Internal timekeeping stays raw float seconds — the typed boundary is the
   .mli. *)
type t = {
  engine : Engine.t;
  topo : Topology.t;
  route : Topology.Route.t;
  rng : Rng.t;
  mixture : mixture;
  prop_rtt : float;
  mean_size : float;
  arrival_mean : float; (* seconds between arrivals *)
  mutable active : record list;
  mutable completed_elastic_bytes : int;
  mutable completed_total_bytes : int;
  mutable fcts : (int * float) list;
  mutable arrivals : int;
  mutable skipped : int;
}

let analytic_mean_size m =
  let lognormal_mean =
    exp (m.lognormal_mu +. (m.lognormal_sigma *. m.lognormal_sigma /. 2.))
  in
  (* E[min(X, cap)] for Pareto(shape, scale): with tails this heavy the cap
     dominates the mean, so the truncation must be accounted for *)
  let a = m.pareto_shape and s = m.pareto_scale and c = m.size_cap in
  let pareto_mean =
    (a *. s /. (a -. 1.)) -. ((s ** a) *. (c ** (1. -. a)) /. (a -. 1.))
  in
  (m.mice_prob *. lognormal_mean) +. ((1. -. m.mice_prob) *. pareto_mean)

let draw_size t =
  let m = t.mixture in
  let raw =
    if Rng.bool t.rng ~p:m.mice_prob then
      Rng.lognormal t.rng ~mu:m.lognormal_mu ~sigma:m.lognormal_sigma
    else Rng.pareto t.rng ~shape:m.pareto_shape ~scale:m.pareto_scale
  in
  let raw = Float.min raw m.size_cap in
  max 400 (int_of_float raw)

let retire t record =
  t.active <- List.filter (fun r -> r != record) t.active;
  t.completed_total_bytes <- t.completed_total_bytes + record.size;
  if record.elastic then
    t.completed_elastic_bytes <- t.completed_elastic_bytes + record.size

let launch t size =
  let jitter =
    1. +. Rng.range t.rng ~lo:(-.rtt_jitter_frac) ~hi:rtt_jitter_frac
  in
  let prop_rtt = Float.max 0.002 (t.prop_rtt *. jitter) in
  let elastic = size > elastic_threshold_bytes in
  let record = ref None in
  let on_complete (flow : Flow.t) =
    match !record with
    | Some r ->
      (match Flow.completion_time flow with
       | Some fct_end ->
         let fct = Time.to_secs fct_end -. Time.to_secs (Flow.start_time flow) in
         t.fcts <- (size, fct) :: t.fcts
       | None -> ());
      retire t r
    | None -> ()
  in
  let flow =
    (* a Cubic cross-flow is ACK-clocked, so it keeps no tick, only an RTO
       deadline timer; [tick_interval] sets that timer's grid, whose 100 ms
       steps are the instants an RTO can fire at *)
    Flow.create_via t.topo ~route:t.route ~cc:(Cubic.make ())
      ~prop_rtt:(Time.secs prop_rtt) ~source:(Flow.Finite size) ~on_complete
      ~tick_interval:(Time.ms 100.) ()
  in
  let r =
    { flow; size; elastic; started = Time.to_secs (Engine.now t.engine) }
  in
  record := Some r;
  t.active <- r :: t.active

let rec schedule_arrival t =
  let gap = Rng.exponential t.rng ~mean:t.arrival_mean in
  Engine.schedule_in t.engine (Time.secs gap) (fun () ->
      t.arrivals <- t.arrivals + 1;
      if List.length t.active >= max_concurrent then t.skipped <- t.skipped + 1
      else launch t (draw_size t);
      schedule_arrival t)

let create topo ~route ~rng ~load ?(profile = `Churny)
    ?(prop_rtt = Time.ms 50.) () =
  let engine = Topology.engine topo in
  let load = Rate.to_bps load in
  if load <= 0. then invalid_arg "Wan.create: load <= 0";
  let mixture = mixture_of_profile profile in
  let mean_size = analytic_mean_size mixture in
  let arrival_rate = load /. 8. /. mean_size in
  let t =
    { engine; topo; route; rng; mixture; prop_rtt = Time.to_secs prop_rtt;
      mean_size; arrival_mean = 1. /. arrival_rate; active = [];
      completed_elastic_bytes = 0; completed_total_bytes = 0; fcts = [];
      arrivals = 0; skipped = 0 }
  in
  (* the first gap is drawn by a deferred event rather than inline; the
     pinned traces and digests depend on that extra event in the schedule *)
  Engine.schedule_at engine (Engine.now engine) (fun () -> schedule_arrival t);
  t

let bytes_split t =
  let elastic = ref t.completed_elastic_bytes in
  let total = ref t.completed_total_bytes in
  List.iter
    (fun r ->
      let got = Flow.received_bytes r.flow in
      total := !total + got;
      if r.elastic then elastic := !elastic + got)
    t.active;
  (!elastic, !total)

let persistent_elastic_active t ~now ~min_age ~min_size =
  let now = Time.to_secs now in
  let min_age = Time.to_secs min_age in
  List.exists
    (fun r ->
      r.elastic && r.size >= min_size && now -. r.started >= min_age)
    t.active

let fcts t =
  Array.of_list
    (List.rev_map (fun (size, fct) -> (size, Time.secs fct)) t.fcts)

let arrivals t = t.arrivals

let skipped t = t.skipped

let active_count t = List.length t.active

let mean_flow_size t = B.bytes t.mean_size
