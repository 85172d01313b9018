module Engine = Nimbus_sim.Engine
module Packet = Nimbus_sim.Packet
module Rng = Nimbus_sim.Rng
module Topology = Nimbus_topology.Topology
module Time = Units.Time
module Rate = Units.Rate

type kind =
  | Poisson of Rng.t
  | Cbr

(* The rate stays raw float (bits/s) internally — the typed boundary is the
   .mli. *)
type t = {
  engine : Engine.t;
  enqueue : Packet.t -> unit;
  kind : kind;
  flow_id : int;
  mutable rate : float;
  (* the mean inter-packet gap in seconds, [pkt_size] bits over [rate]:
     refreshed with the rate, so a send passes a box that already exists
     (a float computed per packet is boxed to cross into [Rng] or
     [Engine]); a Poisson gap is drawn into the engine's key register *)
  mutable gap : float;
  mutable seq : int;
  (* the next send, built once; mutable only because it closes over [t] *)
  mutable step : unit -> unit;
}

let pkt_size = 1500

let pkt_bits = float_of_int (pkt_size * 8)

let flow_id t = t.flow_id

let rate t = Rate.bps t.rate

(* an infinite rate means a zero inter-packet gap, which would never let
   simulated time advance; NaN would silently pause the source *)
let finite_bps rate =
  let bps = Rate.to_bps rate in
  if not (Float.is_finite bps) then invalid_arg "Source: rate must be finite";
  bps

let set_rate t rate =
  t.rate <- Float.max 0. (finite_bps rate);
  t.gap <- pkt_bits /. t.rate

(* a paused source polls for a rate change; boxed once, here *)
let poll_interval = Time.ms 10.

let step t =
  if t.rate > 0. then begin
    (* [~now] is ignored; [Time.zero] boxes nothing *)
    t.enqueue
      (Packet.make ~flow:t.flow_id ~seq:t.seq ~size:pkt_size ~now:Time.zero ());
    t.seq <- t.seq + 1;
    match t.kind with
    | Cbr -> Engine.schedule_in t.engine (Time.secs t.gap) t.step
    | Poisson rng ->
      Rng.exponential_to rng ~mean:t.gap (Engine.key t.engine);
      Engine.schedule_in_key t.engine t.step
  end
  else Engine.schedule_in t.engine poll_interval t.step

(* Packets traverse every hop of [route] and are dropped on the floor after
   the last one (open-loop traffic has no receiver), while still counting
   into the fabric conservation ledger. *)
let make topo ~route kind ~rate ~start =
  let engine = Topology.engine topo in
  let rate = finite_bps rate in
  if rate < 0. then invalid_arg "Source: negative rate";
  let flow_id = Engine.fresh_flow_id engine in
  let t =
    { engine; enqueue = Topology.attach topo ~route ~flow:flow_id ~sink:ignore;
      kind; flow_id; rate; gap = pkt_bits /. rate; seq = 0; step = ignore }
  in
  t.step <- (fun () -> step t);
  let start = match start with Some s -> s | None -> Engine.now engine in
  Engine.schedule_at engine start t.step;
  t

let poisson_via topo ~route ~rng ~rate ?start () =
  make topo ~route (Poisson rng) ~rate ~start

let cbr_via topo ~route ~rate ?start () =
  make topo ~route Cbr ~rate ~start
