module Time = Units.Time
module Rate = Units.Rate
module B = Units.Bytes
module Trace = Nimbus_trace.Trace
module Tev = Nimbus_trace.Event

type policer = {
  p_rate : Rate.t;
  p_burst : int; (* bytes *)
  mutable tokens : float; (* bytes *)
  mutable last_refill : Time.t;
}

type t = {
  engine : Engine.t;
  mutable rate : Rate.t;
  mutable drain_rate_hint : Rate.t; (* last positive rate, for queue_delay *)
  qdisc : Qdisc.t;
  random_loss : (float * Rng.t) option;
  mutable loss_model : (Packet.t -> bool) option;
  policer : policer option;
  fifo : Packet.t Queue.t;
  sinks : (int, Packet.t -> unit) Hashtbl.t;
  mutable qlen : int;
  mutable busy : bool;
  mutable drops : int;
  mutable marks : int;
  delivered_by_flow : (int, int) Hashtbl.t;
  mutable busy_secs : float;
  (* packet-conservation ledger: every offered packet must end up delivered,
     dropped, or still queued.  The invariant monitor audits
     [offered = delivered + drops + queued] every tick. *)
  mutable offered_pkts : int;
  mutable delivered_pkts : int;
  mutable queued_pkts : int;
  trace : Trace.t;
  mutable enq_count : int;
  mutable del_count : int;
}

module Config = struct
  type t = {
    rate : Rate.t;
    qdisc : Qdisc.t;
    random_loss : (float * Rng.t) option;
    policer : (Rate.t * int) option;
    trace : Trace.t;
  }

  let default ~rate ~qdisc =
    { rate; qdisc; random_loss = None; policer = None;
      trace = Trace.disabled }
end

(* trace every [pkt_sample]-th enqueue and delivery; drops are all traced *)
let pkt_sample = 64

let create engine (c : Config.t) =
  let rate = Rate.bps_exn (Rate.to_bps c.rate) in
  let policer =
    Option.map
      (fun (prate, burst) ->
        { p_rate = prate; p_burst = burst; tokens = float_of_int burst;
          last_refill = Engine.now engine })
      c.policer
  in
  { engine; rate; drain_rate_hint = rate; qdisc = c.qdisc;
    random_loss = c.random_loss; loss_model = None; policer;
    fifo = Queue.create (); sinks = Hashtbl.create 16; qlen = 0;
    busy = false; drops = 0; marks = 0;
    delivered_by_flow = Hashtbl.create 16; busy_secs = 0.; offered_pkts = 0;
    delivered_pkts = 0; queued_pkts = 0; trace = c.trace; enq_count = 0;
    del_count = 0 }

let set_sink t ~flow f = Hashtbl.replace t.sinks flow f

let now_s t = Time.to_secs (Engine.now t.engine)
[@@unit_ok "raw-seconds view feeding float trace sinks"]

let set_loss_model t f =
  t.loss_model <- f;
  if Trace.want t.trace Tev.Bottleneck then
    Trace.loss_model t.trace ~now:(now_s t) ~installed:(Option.is_some f)

let bump tbl key n =
  let cur = Option.value ~default:0 (Hashtbl.find_opt tbl key) in
  Hashtbl.replace tbl key (cur + n)

let record_drop t (pkt : Packet.t) ~reason =
  t.drops <- t.drops + 1;
  (* drops are rare and diagnostic gold, so they are never sampled out *)
  if Trace.want t.trace Tev.Packet then
    Trace.pkt_drop t.trace ~now:(now_s t) ~flow:pkt.flow ~seq:pkt.seq ~reason

let deliver t (pkt : Packet.t) =
  bump t.delivered_by_flow pkt.flow pkt.size;
  t.delivered_pkts <- t.delivered_pkts + 1;
  t.queued_pkts <- t.queued_pkts - 1;
  if Trace.want t.trace Tev.Packet then begin
    t.del_count <- t.del_count + 1;
    if t.del_count mod pkt_sample = 0 then
      Trace.pkt_deliver t.trace ~now:(now_s t) ~flow:pkt.flow ~seq:pkt.seq
        ~qdelay:(Time.to_secs (Packet.queueing_delay pkt))
  end;
  match Hashtbl.find_opt t.sinks pkt.flow with
  | Some f -> f pkt
  | None -> ()

(* The head packet is only committed (taken off the FIFO and scheduled) when
   the link has a positive rate; during an outage (µ = 0, see {!set_rate})
   packets stay queued and the link idles until the rate is restored. *)
let rec start_next t =
  if Rate.(t.rate <= Rate.zero) then t.busy <- false
  else begin
    match Queue.take_opt t.fifo with
    | None -> t.busy <- false
    | Some pkt ->
      t.busy <- true;
      let tx = Rate.tx_time t.rate (B.of_int pkt.size) in
      t.busy_secs <- t.busy_secs +. Time.to_secs tx;
      Engine.schedule_in t.engine tx (fun () ->
          pkt.Packet.dequeued_at <- Engine.now t.engine;
          t.qlen <- t.qlen - pkt.size;
          deliver t pkt;
          start_next t)
  end

let set_rate t rate =
  let r = Rate.to_bps rate in
  if not (Float.is_finite r) || r < 0. then
    invalid_arg "Bottleneck.set_rate: rate must be finite and >= 0";
  if Trace.want t.trace Tev.Bottleneck then
    Trace.rate_set t.trace ~now:(now_s t) ~before:(Rate.to_mbps t.rate)
      ~after:(Rate.to_mbps rate);
  t.rate <- rate;
  if Rate.(rate > Rate.zero) then begin
    t.drain_rate_hint <- rate;
    (* coming out of an outage: resume draining whatever queued meanwhile
       (a packet already being serialised keeps its old completion time) *)
    if not t.busy then start_next t
  end

let policer_admits t (pkt : Packet.t) =
  match t.policer with
  | None -> true
  | Some p ->
    let now = Engine.now t.engine in
    let elapsed = Time.sub now p.last_refill in
    let refill = B.to_float (Rate.volume p.p_rate ~over:elapsed) in
    p.tokens <- Float.min (float_of_int p.p_burst) (p.tokens +. refill);
    p.last_refill <- now;
    if p.tokens >= float_of_int pkt.size then begin
      p.tokens <- p.tokens -. float_of_int pkt.size;
      true
    end
    else false

let random_loss_admits t =
  match t.random_loss with
  | None -> true
  | Some (p, rng) -> not (Rng.bool rng ~p)

let loss_model_admits t pkt =
  match t.loss_model with None -> true | Some drop -> not (drop pkt)

let enqueue t pkt =
  let now = Engine.now t.engine in
  t.offered_pkts <- t.offered_pkts + 1;
  if not (policer_admits t pkt) then record_drop t pkt ~reason:Tev.Policer
  else if not (random_loss_admits t) then
    record_drop t pkt ~reason:Tev.Random_loss
  else if not (loss_model_admits t pkt) then
    record_drop t pkt ~reason:Tev.Modeled_loss
  else begin
    match
      Qdisc.decide t.qdisc ~now ~qlen_bytes:t.qlen ~pkt_size:pkt.Packet.size
    with
    | Qdisc.Drop -> record_drop t pkt ~reason:Tev.Queue_full
    | (Qdisc.Admit | Qdisc.Mark) as d ->
    if d = Qdisc.Mark then begin
      pkt.Packet.ecn <- true;
      t.marks <- t.marks + 1
    end;
    pkt.Packet.enqueued_at <- now;
    t.qlen <- t.qlen + pkt.Packet.size;
    t.queued_pkts <- t.queued_pkts + 1;
    if Trace.want t.trace Tev.Packet then begin
      t.enq_count <- t.enq_count + 1;
      if t.enq_count mod pkt_sample = 0 then
        Trace.pkt_enqueue t.trace ~now:(Time.to_secs now) ~flow:pkt.Packet.flow
          ~seq:pkt.Packet.seq ~qlen:t.qlen
    end;
    Queue.push pkt t.fifo;
    if not t.busy then start_next t
  end

let rate t = t.rate

let qlen_bytes t = t.qlen

let queue_delay t =
  (* during an outage the true drain time is unbounded; estimate against the
     last positive rate so monitors keep producing finite samples *)
  let r =
    if Rate.(t.rate > Rate.zero) then t.rate else t.drain_rate_hint
  in
  Rate.tx_time r (B.of_int t.qlen)

let drops t = t.drops

let marks t = t.marks

let delivered_bytes t ~flow =
  Option.value ~default:0 (Hashtbl.find_opt t.delivered_by_flow flow)

let busy_time t = Time.secs t.busy_secs

let capacity_bytes t = Qdisc.capacity_bytes t.qdisc

let offered_packets t = t.offered_pkts

let delivered_packets t = t.delivered_pkts

let queued_packets t = t.queued_pkts
