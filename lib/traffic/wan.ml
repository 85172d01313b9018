module Engine = Nimbus_sim.Engine
module Topology = Nimbus_topology.Topology
module Rng = Nimbus_sim.Rng
module Flow = Nimbus_cc.Flow
module Cubic = Nimbus_cc.Cubic
module Time = Units.Time
module Rate = Units.Rate
module B = Units.Bytes

let elastic_threshold_bytes = 10 * 1500

(* uniform per-flow RTT jitter, ± fraction; both bounds are boxed once,
   here, so a draw boxes neither *)
let rtt_jitter_frac = 0.2

let rtt_jitter_lo = -.rtt_jitter_frac

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

(* [size_cap] is an int, so this is not a record of floats only: OCaml
   keeps each float parameter in a box made once, here, and passing it to
   an [Rng] draw allocates nothing (a field of a float-only record is boxed
   again for every call that takes it). *)
type mixture = {
  mice_prob : float;
  lognormal_mu : float;
  lognormal_sigma : float;
  pareto_scale : float;
  pareto_shape : float;
  size_cap : int; (* bytes *)
}

let mixture_of_profile = function
  | `Churny ->
    { mice_prob = 0.9; lognormal_mu = log 6000.; lognormal_sigma = 1.2;
      pareto_scale = 30_000.; pareto_shape = 1.3; size_cap = 50_000_000 }
  | `Elephant ->
    { mice_prob = 0.995; lognormal_mu = log 4000.; lognormal_sigma = 0.8;
      pareto_scale = 2_000_000.; pareto_shape = 1.05;
      size_cap = 500_000_000 }

(* A cross-flow's Cubic, its adapter and the release hook that hands it
   back to its generator, made together once and reused by later flows:
   the hook runs when the flow that held the controller goes to the
   recycler ([Flow.create_via ?on_release]), after which nothing of that
   flow calls it. *)
type ctl = {
  cubic : Cubic.t;
  cc : Nimbus_cc.Cc_types.t;
  mutable on_release : (Flow.t -> unit) option;
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
  (* The active flows, their sizes and start instants, unordered, in
     [0, nactive) of three parallel arrays that start empty and double up
     to [max_concurrent].
     [slots] maps a flow id to its slot (it grows with the engine's ids),
     so a completed flow leaves in O(1) by moving the last one into its
     slot, and no reader depends on the order.  A vacated slot keeps its
     stale flow until it is reused, and nothing reads it: a completed
     flow is given up, so once its last ACK is in, its record is the
     engine's to recycle, and may already carry another cross-flow. *)
  mutable flows : Flow.t array;
  mutable sizes : int array;
  mutable starts : Float.Array.t;
  mutable nactive : int;
  mutable slots : int array;
  mutable completed_elastic_bytes : int;
  mutable completed_total_bytes : int;
  (* completed transfers in completion order: size and FCT in seconds *)
  mutable fct_sizes : int array;
  mutable fct_secs : Float.Array.t;
  mutable nfcts : int;
  mutable arrivals : int;
  mutable skipped : int;
  (* the controllers whose flows went to the recycler, newest last, in
     [0, nspare) of an array that starts empty and doubles *)
  mutable spare_ctls : ctl array;
  mutable nspare : int;
  (* the register every size and RTT draw lands in, unboxed *)
  draw : Float.Array.t;
  (* the arrival event and the completion callback, built once in
     [create] *)
  mutable arrive : unit -> unit;
  mutable on_complete : (Flow.t -> unit) option;
}

let analytic_mean_size m =
  let lognormal_mean =
    exp (m.lognormal_mu +. (m.lognormal_sigma *. m.lognormal_sigma /. 2.))
  in
  (* E[min(X, cap)] for Pareto(shape, scale): with tails this heavy the cap
     dominates the mean, so the truncation must be accounted for *)
  let a = m.pareto_shape and s = m.pareto_scale in
  let c = float_of_int m.size_cap in
  let pareto_mean =
    (a *. s /. (a -. 1.)) -. ((s ** a) *. (c ** (1. -. a)) /. (a -. 1.))
  in
  (m.mice_prob *. lognormal_mean) +. ((1. -. m.mice_prob) *. pareto_mean)

(* The draw lands in [t.draw] and is capped by a test, since a call to
   [Float.min] would box both operands and its result; it is the same
   minimum, NaN included. *)
let draw_size t =
  let m = t.mixture in
  if Rng.bool t.rng ~p:m.mice_prob then
    Rng.lognormal_to t.rng ~mu:m.lognormal_mu ~sigma:m.lognormal_sigma t.draw
  else Rng.pareto_to t.rng ~shape:m.pareto_shape ~scale:m.pareto_scale t.draw;
  let raw = Float.Array.unsafe_get t.draw 0 in
  let cap = float_of_int m.size_cap in
  max 400 (int_of_float (if raw > cap then cap else raw))

let elastic size = size > elastic_threshold_bytes

(* [flow] starts now *)
let add_active t size flow =
  let n = t.nactive in
  if n = Array.length t.flows then begin
    let cap = min max_concurrent (max 16 (2 * n)) in
    let flows = Array.make cap flow and sizes = Array.make cap 0 in
    let starts = Float.Array.make cap 0. in
    Array.blit t.flows 0 flows 0 n;
    Array.blit t.sizes 0 sizes 0 n;
    Float.Array.blit t.starts 0 starts 0 n;
    t.flows <- flows;
    t.sizes <- sizes;
    t.starts <- starts
  end;
  let id = Flow.id flow in
  if id >= Array.length t.slots then begin
    let slots = Array.make (max 64 (max (id + 1) (2 * id))) (-1) in
    Array.blit t.slots 0 slots 0 (Array.length t.slots);
    t.slots <- slots
  end;
  t.slots.(id) <- n;
  t.flows.(n) <- flow;
  t.sizes.(n) <- size;
  Float.Array.set t.starts n (Float.Array.get (Engine.clock t.engine) 0);
  t.nactive <- n + 1

(* swap-remove: the last active flow takes the vacated slot [i] *)
let remove_active t i =
  let last = t.nactive - 1 in
  if i <> last then begin
    let moved = t.flows.(last) in
    t.flows.(i) <- moved;
    t.sizes.(i) <- t.sizes.(last);
    Float.Array.set t.starts i (Float.Array.get t.starts last);
    t.slots.(Flow.id moved) <- i
  end;
  t.nactive <- last

let push_fct t size fct =
  let n = t.nfcts in
  if n = Array.length t.fct_sizes then begin
    let cap = max 64 (2 * n) in
    let sizes = Array.make cap 0 and secs = Float.Array.make cap 0. in
    Array.blit t.fct_sizes 0 sizes 0 n;
    Float.Array.blit t.fct_secs 0 secs 0 n;
    t.fct_sizes <- sizes;
    t.fct_secs <- secs
  end;
  t.fct_sizes.(n) <- size;
  Float.Array.set t.fct_secs n fct;
  t.nfcts <- n + 1

(* A flow completes inside the event that delivers its last byte, so the
   clock reads its completion time. *)
let complete t flow =
  let i = t.slots.(Flow.id flow) in
  let size = t.sizes.(i) in
  let now = Float.Array.get (Engine.clock t.engine) 0 in
  push_fct t size (now -. Float.Array.get t.starts i);
  remove_active t i;
  t.completed_total_bytes <- t.completed_total_bytes + size;
  if elastic size then
    t.completed_elastic_bytes <- t.completed_elastic_bytes + size;
  (* nothing reads the flow after this: its record goes to the next
     cross-flow once its last ACK is in *)
  Flow.recycle flow

(* The controller LIFO.  A controller is pushed by its flow's release hook
   and popped, reset, by the next launch. *)
let put_ctl t c =
  let n = t.nspare in
  if n = Array.length t.spare_ctls then begin
    let ctls = (Array.make (max 16 (2 * n)) c
                [@alloc_ok "amortized LIFO doubling"]) in
    Array.blit t.spare_ctls 0 ctls 0 n;
    t.spare_ctls <- ctls
  end;
  t.spare_ctls.(n) <- c;
  t.nspare <- n + 1
[@@alloc_free]

let new_ctl t =
  let cubic = Cubic.create () in
  let c = { cubic; cc = Cubic.cc cubic; on_release = None } in
  c.on_release <- Some (fun _ -> put_ctl t c);
  c

let take_ctl t =
  if t.nspare = 0 then (new_ctl t [@alloc_ok "once per controller"])
  else begin
    let n = t.nspare - 1 in
    t.nspare <- n;
    let c = t.spare_ctls.(n) in
    Cubic.reset c.cubic;
    c
  end
[@@alloc_free]

(* a Cubic cross-flow is ACK-clocked, so it keeps no tick, only an RTO
   deadline timer; [tick_interval] sets that timer's grid, whose 100 ms
   steps are the instants an RTO can fire at.  Passed as the option
   itself, so a launch wraps nothing. *)
let rto_grid = Some (Time.ms 100.)

(* The jittered RTT is worked out in unboxed floats and boxed once, for
   [create_via]: [Float.max 0.002 p] as a test, since a call to it would
   box [p] and its result. *)
let launch t size =
  Rng.range_to t.rng ~lo:rtt_jitter_lo ~hi:rtt_jitter_frac t.draw;
  let p = t.prop_rtt *. (1. +. Float.Array.unsafe_get t.draw 0) in
  let prop_rtt = if p > 0.002 || Float.is_nan p then p else 0.002 in
  let ctl = take_ctl t in
  let flow =
    Flow.create_via t.topo ~route:t.route ~cc:ctl.cc
      ~prop_rtt:(Time.secs prop_rtt) ~source:(Flow.Finite size)
      ?on_complete:t.on_complete ?on_release:ctl.on_release
      ?tick_interval:rto_grid ()
  in
  add_active t size flow;
  flow

let schedule_arrival t =
  Rng.exponential_to t.rng ~mean:t.arrival_mean (Engine.key t.engine);
  Engine.schedule_in_key t.engine t.arrive

let arrive t =
  t.arrivals <- t.arrivals + 1;
  if t.nactive >= max_concurrent then t.skipped <- t.skipped + 1
  else ignore (launch t (draw_size t));
  schedule_arrival t

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
      mean_size; arrival_mean = 1. /. arrival_rate; flows = [||];
      sizes = [||]; starts = Float.Array.create 0; nactive = 0; slots = [||];
      completed_elastic_bytes = 0; completed_total_bytes = 0;
      fct_sizes = [||]; fct_secs = Float.Array.create 0; nfcts = 0;
      arrivals = 0; skipped = 0; spare_ctls = [||]; nspare = 0;
      draw = Float.Array.make 1 0.; arrive = ignore; on_complete = None }
  in
  t.arrive <- (fun () -> arrive t);
  t.on_complete <- Some (fun flow -> complete t flow);
  (* the first gap is drawn by a deferred event rather than inline; the
     pinned traces and digests depend on that extra event in the schedule *)
  Engine.schedule_at engine (Engine.now engine) (fun () -> schedule_arrival t);
  t

let bytes_split t =
  let elastic_bytes = ref t.completed_elastic_bytes in
  let total = ref t.completed_total_bytes in
  for i = 0 to t.nactive - 1 do
    let got = Flow.received_bytes t.flows.(i) in
    total := !total + got;
    if elastic t.sizes.(i) then elastic_bytes := !elastic_bytes + got
  done;
  (!elastic_bytes, !total)

let persistent_elastic_active t ~now ~min_age ~min_size =
  let now = Time.to_secs now in
  let min_age = Time.to_secs min_age in
  let rec scan i =
    i < t.nactive
    && ((let size = t.sizes.(i) in
         elastic size && size >= min_size
         && now -. Float.Array.get t.starts i >= min_age)
       || scan (i + 1))
  in
  scan 0

let fcts t =
  Array.init t.nfcts (fun i ->
      (t.fct_sizes.(i), Time.secs (Float.Array.get t.fct_secs i)))

let arrivals t = t.arrivals

let skipped t = t.skipped

let active_count t = t.nactive

let mean_flow_size t = B.bytes t.mean_size

module Private = struct
  let launch t ~size = launch t size

  let spare_controllers t = t.nspare
end
