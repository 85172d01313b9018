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
}

let quick = { time_scale = 0.4; seeds = 1 }

let full = { time_scale = 1.0; seeds = 3 }

let scaled p seconds = Float.max 20. (p.time_scale *. seconds)

type link = {
  mu : Units.Rate.t;
  prop_rtt : Units.Time.t;
  buffer_bdp : float;
  aqm : [ `Droptail | `Pie of Units.Time.t ];
}

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

let pool : Nimbus_parallel.Pool.t option ref = ref None

let set_pool p = pool := p

let map_cases ~f cases =
  match !pool with
  | Some p when Nimbus_parallel.Pool.parallelism p > 1 ->
    let arr = Array.of_list cases in
    let n = Array.length arr in
    if n <= 1 then List.map f cases
    else
      Array.to_list
        (Nimbus_parallel.Pool.map p
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
  map_cases
    ~f:(fun seed ->
      (f
      [@shared_ok
        "the caller's per-seed function; run_seeds' contract is that it is \
         safe to run on any domain"])
        ~seed)
    (List.init p.seeds (fun k -> base + k))

(* --- crash isolation ------------------------------------------------------- *)

type crash = {
  crash_label : string;
  crash_seed : int;
  crash_exn : string;
  crash_backtrace : string;
  crash_recovered : bool;
  crash_attempts : int;
  crash_raw : exn;
}

(* cases run on arbitrary pool domains, so the log needs a lock and the test
   hook must be an atomic *)
let crash_mutex = Mutex.create ()

let crash_log : crash list ref = ref []

let record_crash c =
  Mutex.lock crash_mutex;
  (crash_log := c :: !crash_log)
  [@shared_ok "crash_log is only ever touched under crash_mutex"];
  Mutex.unlock crash_mutex
[@@domain_safe
  "called from pool tasks on arbitrary domains; the only shared state it \
   touches is crash_log, under crash_mutex"]

let crashes () =
  Mutex.lock crash_mutex;
  let cs = !crash_log in
  Mutex.unlock crash_mutex;
  (* domain scheduling makes the log order nondeterministic; sort so crash
     reports are stable across pool sizes *)
  List.sort
    (fun a b ->
      match String.compare a.crash_label b.crash_label with
      | 0 -> Int.compare a.crash_seed b.crash_seed
      | c -> c)
    cs

let clear_crashes () =
  Mutex.lock crash_mutex;
  crash_log := [];
  Mutex.unlock crash_mutex

let crash_hook : (label:string -> seed:int -> bool) option Atomic.t =
  Atomic.make None

let set_crash_hook h = Atomic.set crash_hook h

let rekey seed = seed lxor 0x9E3779B9 [@@domain_safe "pure integer mixing"]

let run_case ?check ?(attempts = 2) ~label ~seed f =
  if attempts < 1 then invalid_arg "Common.run_case: attempts must be >= 1";
  let attempt seed =
    (match
       Atomic.get
         (crash_hook
         [@shared_ok
           "test-only fault hook, read atomically once per attempt; \
            installed before the fan-out starts"])
     with
     | Some hook when hook ~label ~seed ->
       failwith
         (Printf.sprintf "forced crash (test hook): %s seed=%d" label seed)
     | _ -> ());
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
  let rec go k seed_k e1 bt1 =
    match attempt seed_k with
    | r ->
      if k > 1 then
        record_crash
          { crash_label = label; crash_seed = seed;
            crash_exn = Printexc.to_string e1; crash_backtrace = bt1;
            crash_recovered = true; crash_attempts = k; crash_raw = e1 };
      Ok r
    | exception e ->
      let bt = Printexc.get_backtrace () in
      if k >= attempts then begin
        let c =
          { crash_label = label; crash_seed = seed;
            crash_exn = Printexc.to_string e; crash_backtrace = bt;
            crash_recovered = false; crash_attempts = k; crash_raw = e }
        in
        record_crash c;
        Error c
      end
      else go (k + 1) (rekey seed_k) e bt
  in
  go 1 seed (Failure "unreached") ""
[@@domain_safe
  "runs inside pool tasks; shared state is limited to the atomic crash \
   hook and the mutex-guarded crash log (via record_crash)"]

let crash_cell c = Printf.sprintf "!crash(seed %d)" c.crash_seed
