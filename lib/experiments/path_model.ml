(* The synthetic Internet-path population behind Fig. 18/19 and the fleet
   sweep.  Factored out of exp_internet_paths so the 25-path figure and the
   10^4+-path Monte-Carlo sweep draw from the *same* distribution: one
   sequential splitmix64 stream, six draws per path, so the first [k] paths
   of any sample are identical whatever the total count.

   Ranges follow the paper's testbed diversity: 20-100 Mbit/s, 20-120 ms,
   0.5-3 BDP of buffering, 20% of paths lossy (0.1-1% random loss), 12% of
   the rest policed at 85% of line rate, plus 10-50% background WAN load. *)

module Engine = Nimbus_sim.Engine
module Rng = Nimbus_sim.Rng
module Bottleneck = Nimbus_sim.Bottleneck
module Qdisc = Nimbus_sim.Qdisc
module Wan = Nimbus_traffic.Wan
module Time = Units.Time
module Rate = Units.Rate

type t = {
  p_id : int;
  mbps : float;
  rtt_ms : float;
  buffer_bdp : float;
  loss : float; (* random loss probability *)
  policed : bool;
  wan_load : float; (* background traffic as a fraction of the link *)
}

type sampler = {
  rng : Rng.t;
  mutable next_id : int;
}

let sampler ~seed = { rng = Rng.create seed; next_id = 0 }

let next s =
  let rng = s.rng in
  let i = s.next_id in
  s.next_id <- i + 1;
  (* draw order is part of the format: six draws per path, lossy/policed
     coins first — changing it would silently resample every figure *)
  let lossy = Rng.uniform rng < 0.2 in
  let policed = (not lossy) && Rng.uniform rng < 0.12 in
  { p_id = i;
    mbps = Rng.range rng ~lo:20. ~hi:100.;
    rtt_ms = Rng.range rng ~lo:20. ~hi:120.;
    buffer_bdp = Rng.range rng ~lo:0.5 ~hi:3.;
    loss = (if lossy then Rng.range rng ~lo:0.001 ~hi:0.01 else 0.);
    policed;
    wan_load = Rng.range rng ~lo:0.1 ~hi:0.5 }

let skip s n =
  for _ = 1 to n do
    ignore (next s)
  done

let sample ~count ~seed =
  let s = sampler ~seed in
  (* explicit loop: the stream is sequential, so paths must be drawn in id
     order whatever List.init's evaluation order is *)
  let rec go k acc = if k = 0 then List.rev acc else go (k - 1) (next s :: acc) in
  go count []

let kind path =
  if path.loss > 0. then "lossy"
  else if path.policed then "policed"
  else "buffered"

let describe path =
  Printf.sprintf "%.0fM/%.0fms/%s" path.mbps path.rtt_ms (kind path)

let setup ?trace path ~seed =
  let mu = path.mbps *. 1e6 in
  let prop_rtt = path.rtt_ms /. 1e3 in
  let capacity_bytes =
    max (4 * 1500) (int_of_float (mu *. prop_rtt *. path.buffer_bdp /. 8.))
  in
  let queue rng =
    let random_loss =
      if path.loss > 0. then Some (path.loss, Rng.split rng) else None
    in
    let policer =
      if path.policed then Some (Rate.bps (mu *. 0.85), 50 * 1500) else None
    in
    { (Bottleneck.Config.default ~rate:(Rate.bps mu)
         ~qdisc:(Qdisc.droptail ~capacity_bytes))
      with random_loss; policer }
  in
  let l =
    { Common.mu = Rate.bps mu;
      prop_rtt = Time.secs prop_rtt;
      buffer_bdp = path.buffer_bdp;
      aqm = `Droptail }
  in
  (Common.setup ?trace ~queue ~seed l, mu, prop_rtt)

type outcome = {
  o_tput : float; (* mean throughput over [8 s, horizon], bps *)
  o_rtt : float; (* mean RTT over the same window, seconds *)
  o_violations : int; (* 0 when [invariants] was off *)
}

let run ?trace ?watchdog ?(invariants = false) (p : Common.profile) path
    (sch : Common.scheme) ~seed =
  let net, mu, prop_rtt = setup ?trace path ~seed in
  let { Common.engine; topo; route; rng; _ } = net in
  let horizon = Common.scaled p 60. in
  if path.wan_load > 0. then
    ignore
      (Wan.create topo ~route ~rng:(Rng.split rng)
         ~prop_rtt:(Time.secs prop_rtt)
         ~load:(Rate.bps (path.wan_load *. mu)) ());
  let running = sch.Common.start_flow net () in
  let monitor =
    if invariants then
      Some
        (Common.audit topo
           ~nimbus:
             (match running.Common.nimbus with
              | Some nim -> [ (sch.Common.scheme_name, nim) ]
              | None -> []))
    else None
  in
  (* cooperative watchdog: polled once per simulated second so a case that
     blows its wall-clock budget raises out of [Engine.run_until] instead of
     hanging its pool domain (a callback that never returns is out of scope —
     there is no safe preemption across domains) *)
  (match watchdog with
   | None -> ()
   | Some check -> Engine.every engine ~dt:(Time.secs 1.0) check);
  let stats = Common.instrument net running ~until:(Time.secs horizon) in
  Engine.run_until engine (Time.secs horizon);
  { o_tput = Common.mean stats.Common.tput_series ~lo:8. ~hi:horizon;
    o_rtt = Common.mean stats.Common.rtt_series ~lo:8. ~hi:horizon;
    o_violations =
      (match monitor with
       | None -> 0
       | Some m -> Nimbus_metrics.Invariant.count m) }
