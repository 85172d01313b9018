module Engine = Nimbus_sim.Engine
module Packet = Nimbus_sim.Packet
module Rng = Nimbus_sim.Rng
module Topology = Nimbus_topology.Topology
module Time = Units.Time
module Rate = Units.Rate

type kind =
  | Poisson of Rng.t
  | Cbr

(* Rate and stop time stay raw float (bits/s, seconds) internally — the
   typed boundary is the .mli. *)
type t = {
  engine : Engine.t;
  enqueue : Packet.t -> unit;
  kind : kind;
  flow_id : int;
  pkt_size : int;
  stop : float option;
  mutable rate : float;
  mutable seq : int;
  mutable active : bool;
}

let flow_id t = t.flow_id

let rate t = Rate.bps t.rate

(* an infinite rate means a zero inter-packet gap, which would never let
   simulated time advance; NaN would silently pause the source *)
let finite_bps rate =
  let bps = Rate.to_bps rate in
  if not (Float.is_finite bps) then invalid_arg "Source: rate must be finite";
  bps

let set_rate t rate = t.rate <- Float.max 0. (finite_bps rate)

let halt t = t.active <- false

let interval t =
  let bits = float_of_int (t.pkt_size * 8) in
  match t.kind with
  | Cbr -> bits /. t.rate
  | Poisson rng -> Rng.exponential rng ~mean:(bits /. t.rate)

let rec step t =
  let now = Engine.now t.engine in
  let expired =
    match t.stop with Some s -> Time.to_secs now >= s | None -> false
  in
  if t.active && not expired then begin
    if t.rate > 0. then begin
      let pkt =
        Packet.make ~flow:t.flow_id ~seq:t.seq ~size:t.pkt_size ~now ()
      in
      t.seq <- t.seq + 1;
      t.enqueue pkt;
      Engine.schedule_in t.engine (Time.secs (interval t)) (fun () -> step t)
    end
    else
      (* paused: poll for a rate change *)
      Engine.schedule_in t.engine (Time.ms 10.) (fun () -> step t)
  end

(* Packets traverse every hop of [route] and are dropped on the floor after
   the last one (open-loop traffic has no receiver), while still counting
   into the fabric conservation ledger. *)
let make topo ~route kind ~rate ~pkt_size ~start ~stop =
  let engine = Topology.engine topo in
  let rate = finite_bps rate in
  if rate < 0. then invalid_arg "Source: negative rate";
  let flow_id = Engine.fresh_flow_id engine in
  let t =
    { engine; enqueue = Topology.attach topo ~route ~flow:flow_id ~sink:ignore;
      kind; flow_id; pkt_size; stop = Option.map Time.to_secs stop; rate;
      seq = 0; active = true }
  in
  let start = match start with Some s -> s | None -> Engine.now engine in
  Engine.schedule_at engine start (fun () -> step t);
  t

let poisson_via topo ~route ~rng ~rate ?(pkt_size = 1500) ?start ?stop () =
  make topo ~route (Poisson rng) ~rate ~pkt_size ~start ~stop

let cbr_via topo ~route ~rate ?(pkt_size = 1500) ?start ?stop () =
  make topo ~route Cbr ~rate ~pkt_size ~start ~stop
