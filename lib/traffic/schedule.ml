module Engine = Nimbus_sim.Engine
module Topology = Nimbus_topology.Topology
module Flow = Nimbus_cc.Flow
module Cubic = Nimbus_cc.Cubic
module Time = Units.Time
module Rate = Units.Rate

type phase = {
  p_start : Units.Time.t;
  p_end : Units.Time.t;
  inelastic : Units.Rate.t;
  elastic_flows : int;
}

let phase ~start ~stop ~inelastic ~elastic_flows =
  if Time.(stop <= start) then invalid_arg "Schedule.phase: stop <= start";
  if elastic_flows < 0 then invalid_arg "Schedule.phase: negative flow count";
  { p_start = start; p_end = stop; inelastic; elastic_flows }

type t = {
  phases : phase list;
  mutable created : Flow.t list;
}

let phase_at t now =
  List.find_opt (fun p -> Time.(now >= p.p_start && now < p.p_end)) t.phases

let install topo ~route ~rng ~phases ?(inelastic = `Poisson)
    ?(prop_rtt = Time.ms 50.) ?elastic_cc () =
  if phases = [] then invalid_arg "Schedule.install: no phases";
  let engine = Topology.engine topo in
  let make_cc =
    match elastic_cc with Some f -> f | None -> fun () -> Cubic.make ()
  in
  let source =
    match inelastic with
    | `Poisson -> Source.poisson_via topo ~route ~rng ~rate:Rate.zero ()
    | `Cbr -> Source.cbr_via topo ~route ~rate:Rate.zero ()
  in
  let t = { phases; created = [] } in
  List.iter
    (fun p ->
      Engine.schedule_at engine p.p_start (fun () ->
          Source.set_rate source p.inelastic;
          let flows =
            List.init p.elastic_flows (fun _ ->
                Flow.create_via topo ~route ~cc:(make_cc ()) ~prop_rtt ())
          in
          t.created <- t.created @ flows;
          Engine.schedule_at engine p.p_end (fun () ->
              List.iter (fun fl -> Flow.apply fl Flow.Control.Stop) flows)))
    phases;
  (* silence the source after the last phase *)
  let last_end =
    List.fold_left
      (fun acc p -> Time.max acc p.p_end)
      (Time.secs neg_infinity) phases
  in
  Engine.schedule_at engine last_end (fun () ->
      Source.set_rate source Rate.zero);
  t

let elastic_present t ~now =
  match phase_at t now with
  | Some p -> p.elastic_flows > 0
  | None -> false

let inelastic_rate t ~now =
  match phase_at t now with
  | Some p -> p.inelastic
  | None -> Rate.zero

let fair_share t ~now ~mu ~primary_flows =
  match phase_at t now with
  | None -> Rate.scale (1. /. float_of_int (max 1 primary_flows)) mu
  | Some p ->
    let remaining = Rate.max Rate.zero (Rate.sub mu p.inelastic) in
    Rate.scale
      (1. /. float_of_int (max 1 (p.elastic_flows + primary_flows)))
      remaining

let elastic_cross_flows t = t.created
