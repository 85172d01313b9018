module Engine = Nimbus_sim.Engine
module Bottleneck = Nimbus_sim.Bottleneck
module Qdisc = Nimbus_sim.Qdisc
module Rng = Nimbus_sim.Rng
module Topology = Nimbus_topology.Topology
module Flow = Nimbus_cc.Flow
module Nimbus = Nimbus_core.Nimbus
module Z = Nimbus_core.Z_estimator
module Series = Nimbus_metrics.Series
module Monitor = Nimbus_metrics.Monitor
module Invariant = Nimbus_metrics.Invariant
module Accuracy = Nimbus_metrics.Accuracy
module Stats = Nimbus_dsp.Stats
module Time = Units.Time
module Rate = Units.Rate

type profile = {
  time_scale : float;
  seeds : int;
  pool : Nimbus_parallel.Pool.t option;
}

let quick = { time_scale = 0.4; seeds = 1; pool = None }

let full = { time_scale = 1.0; seeds = 3; pool = None }

let scaled p seconds = Float.max 20. (p.time_scale *. seconds)

type link = {
  mu : Units.Rate.t;
  prop_rtt : Units.Time.t;
  buffer_bdp : float;
  aqm : [ `Droptail | `Pie of Units.Time.t ];
}

let max_link_mbps = 1000.

let min_link_mbps = 0.001

let max_duration_s = 86_400.

let link ~mbps ~rtt_ms ?(buffer_bdp = 2.0) ?(aqm = `Droptail) () =
  { mu = Rate.mbps mbps; prop_rtt = Time.ms rtt_ms; buffer_bdp; aqm }

type net = {
  engine : Engine.t;
  topo : Topology.t;
  route : Topology.Route.t;
  bottleneck : Bottleneck.t;
  rng : Rng.t;
  net_link : link;
}

(* the qdisc rng split happens right after the run's rng is created and
   before the topology is built — preserving the draw order is part of the
   byte-identical-trace contract *)
let qdisc_of ~rng l =
  let capacity_bytes =
    max (4 * 1500)
      (int_of_float
         (Rate.to_bps l.mu *. Time.to_secs l.prop_rtt *. l.buffer_bdp /. 8.))
  in
  match l.aqm with
  | `Droptail -> Qdisc.droptail ~capacity_bytes
  | `Pie target ->
    Qdisc.pie ~capacity_bytes ~target_delay:target ~link_rate:l.mu
      ~rng:(Rng.split rng)

let setup ?(trace = Nimbus_trace.Trace.disabled) ?queue ~seed l =
  let engine = Engine.create { trace } in
  let rng = Rng.create seed in
  let config =
    match queue with
    | Some queue -> queue rng
    | None -> Bottleneck.Config.default ~rate:l.mu ~qdisc:(qdisc_of ~rng l)
  in
  let topo, route =
    Topology.dumbbell engine
      { bottleneck = { config with trace }; prop_delay = Time.zero }
  in
  let bottleneck =
    Topology.link_bottleneck (List.hd (Topology.Route.links route))
  in
  { engine; topo; route; bottleneck; rng; net_link = l }

let audit ?nimbus topo =
  let monitor =
    Invariant.create (Topology.engine topo)
      ~bottlenecks:
        (List.map
           (fun l -> (Topology.link_label l, Topology.link_bottleneck l))
           (Topology.links topo))
      ?nimbus ()
  in
  Invariant.add_check monitor ~name:"topology-conservation" (fun () ->
      Topology.conservation_check topo);
  monitor

type running = {
  flow : Flow.t;
  in_competitive : (unit -> bool) option;
  nimbus : Nimbus_core.Nimbus.t option;
}

type scheme = {
  scheme_name : string;
  start_flow : net -> ?start:Units.Time.t -> unit -> running;
}

let plain name make_cc =
  { scheme_name = name;
    start_flow =
      (fun net ?start () ->
        let l = net.net_link in
        let flow =
          Flow.create_via net.topo ~route:net.route ~cc:(make_cc l)
            ~prop_rtt:l.prop_rtt ?start ()
        in
        { flow; in_competitive = None; nimbus = None }) }

let nimbus ?name ?(delay = `Basic_delay) ?(pulse_frac = 0.25)
    ?(multi_flow = false) ?(seed = 1) ?(estimate_mu = false) () =
  let scheme_name = match name with Some n -> n | None -> "nimbus" in
  { scheme_name;
    start_flow =
      (fun net ?start () ->
        let l = net.net_link in
        let engine = net.engine in
        let mu =
          if estimate_mu then Z.Mu.estimator () else Z.Mu.known l.mu
        in
        let nim =
          Nimbus.create
            { (Nimbus.Config.default ~mu) with
              delay; pulse_frac; multi_flow; seed; trace = Engine.trace engine }
        in
        let flow =
          Flow.create_via net.topo ~route:net.route
            ~cc:(Nimbus.cc nim ~now:(fun () -> Engine.now engine))
            ~prop_rtt:l.prop_rtt ?start ()
        in
        { flow;
          in_competitive =
            Some (fun () -> Nimbus.mode nim = Nimbus.Competitive);
          nimbus = Some nim }) }

let nimbus_delay_only =
  { scheme_name = "nimbus-delay";
    start_flow =
      (fun net ?start () ->
        let l = net.net_link in
        let cc = Nimbus_cc.Basic_delay.make ~mu:l.mu () in
        let flow =
          Flow.create_via net.topo ~route:net.route ~cc ~prop_rtt:l.prop_rtt
            ?start ()
        in
        { flow; in_competitive = None; nimbus = None }) }

let cubic = plain "cubic" (fun _ -> Nimbus_cc.Cubic.make ())

let reno = plain "reno" (fun _ -> Nimbus_cc.Reno.make ())

let vegas = plain "vegas" (fun _ -> Nimbus_cc.Vegas.make ())

let copa =
  { scheme_name = "copa";
    start_flow =
      (fun net ?start () ->
        let c = Nimbus_cc.Copa.create ~switching:true () in
        let flow =
          Flow.create_via net.topo ~route:net.route ~cc:(Nimbus_cc.Copa.cc c)
            ~prop_rtt:net.net_link.prop_rtt ?start ()
        in
        { flow;
          in_competitive =
            Some (fun () -> Nimbus_cc.Copa.in_competitive_mode c);
          nimbus = None }) }

let bbr = plain "bbr" (fun _ -> Nimbus_cc.Bbr.make ())

let vivace = plain "vivace" (fun _ -> Nimbus_cc.Vivace.make ())

let compound = plain "compound" (fun _ -> Nimbus_cc.Compound.make ())

let all_baselines = [ cubic; bbr; vegas; copa; vivace ]

type run_stats = {
  tput_series : Series.t;
  qdelay_series : Series.t;
  rtt_series : Series.t;
}

let instrument net running ~until =
  let engine = net.engine in
  { tput_series =
      Monitor.flow_throughput engine running.flow ~interval:(Time.secs 1.0)
        ~until ();
    qdelay_series =
      Monitor.queue_delay engine net.bottleneck ~interval:(Time.ms 100.)
        ~until ();
    rtt_series =
      Monitor.flow_rtt engine running.flow ~interval:(Time.ms 100.) ~until ()
  }

let measure_accuracy engine running ~start ~until truth =
  let accuracy = Accuracy.create () in
  (match running.in_competitive with
   | Some mode ->
     Engine.every engine ~dt:(Time.ms 100.) ~start ~until (fun () ->
         Accuracy.record accuracy ~predicted_elastic:(mode ())
           ~truth_elastic:(truth ()))
   | None -> ());
  accuracy

let window_values s ~lo ~hi =
  let xs = Series.values_between s ~lo:(Time.secs lo) ~hi:(Time.secs hi) in
  Array.of_list
    (List.filter (fun x -> not (Float.is_nan x)) (Array.to_list xs))

let mean s ~lo ~hi =
  let xs = window_values s ~lo ~hi in
  if Array.length xs = 0 then nan else Stats.mean xs

let pct s ~lo ~hi p =
  let xs = window_values s ~lo ~hi in
  if Array.length xs = 0 then nan else Stats.percentile xs p

(* --- parallel fan-out ----------------------------------------------------- *)

let map_cases p ~f cases =
  match p.pool with
  | Some pool when Nimbus_parallel.Pool.parallelism pool > 1 ->
    let arr = Array.of_list cases in
    let n = Array.length arr in
    if n <= 1 then List.map f cases
    else
      Array.to_list
        (Nimbus_parallel.Pool.map pool
           ~f:(fun i ->
             (f
             [@shared_ok
               "the caller's case function; map_cases' contract is that it \
                is safe to run on any domain"])
               (arr
               [@shared_ok
                 "frozen before the fan-out; workers read disjoint indices \
                  and never write"])
                 .(i))
           n)
  | _ -> List.map f cases

let run_seeds p ~base f =
  map_cases p
    ~f:(fun seed ->
      (f
      [@shared_ok
        "the caller's per-seed function; run_seeds' contract is that it is \
         safe to run on any domain"])
        ~seed)
    (List.init p.seeds (fun k -> base + k))

(* --- crash isolation ------------------------------------------------------- *)

type crash = {
  crash_seed : int;
  crash_attempts : int;
  crash_exn : exn;
}

let clear_crashes () = ()

let rekey seed = seed lxor 0x9E3779B9 [@@domain_safe "pure integer mixing"]

let run_case ?check ?(attempts = 1) ~seed f =
  if attempts < 1 then invalid_arg "Common.run_case: attempts must be >= 1";
  let attempt seed =
    let r = f ~seed in
    (match check with
     | Some chk ->
       (match chk r with
        | Some msg -> failwith (Printf.sprintf "invalid result: %s" msg)
        | None -> ())
     | None -> ());
    r
  in
  (* attempt [k] (1-based) runs on seed rekeyed [k-1] times: each retry gets
     a fresh deterministic rng stream, so results stay reproducible whatever
     pool domain retries them *)
  let rec go k seed_k =
    match attempt seed_k with
    | r -> Ok r
    | exception e ->
      if k >= attempts then
        Error { crash_seed = seed; crash_attempts = k; crash_exn = e }
      else go (k + 1) (rekey seed_k)
  in
  go 1 seed
[@@domain_safe "runs inside pool tasks; touches only its arguments"]

let crash_cell c = Printf.sprintf "!crash(seed %d)" c.crash_seed
[@@domain_safe "formats its argument; called inside pool tasks"]
