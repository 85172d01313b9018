module Time = Units.Time
module Rate = Units.Rate
module B = Units.Bytes
module Trace = Nimbus_trace.Trace
module Tev = Nimbus_trace.Event

(* A token bucket, in a record of floats only: OCaml stores those unboxed,
   so refilling it per packet allocates nothing. *)
type policer = {
  p_rate : float; (* bits/s *)
  p_burst : float; (* bytes *)
  mutable tokens : float; (* bytes *)
  mutable last_refill : float; (* s *)
}

type t = {
  engine : Engine.t;
  clock : Float.Array.t; (* {!Engine.clock} *)
  mutable rate : Rate.t;
  mutable drain_rate_hint : Rate.t; (* last positive rate, for queue_delay *)
  qdisc : Qdisc.t;
  qdisc_reads_clock : bool;
  random_loss : (float * Rng.t) option;
  mutable loss_model : (Packet.t -> bool) option;
  policer : policer option;
  (* The FIFO: a power-of-two ring of packets, live in [fifo_head,
     fifo_head + fifo_len) mod capacity, with each packet's enqueue time at
     the same index of [fifo_at].  It starts empty and doubles when full. *)
  mutable fifo : Packet.t array;
  mutable fifo_at : Float.Array.t;
  mutable fifo_head : int;
  mutable fifo_len : int;
  (* A link serialises one packet at a time: while [busy], [serving] is that
     packet, [slots.(1)] its enqueue time, and [finish] (built once, in
     {!create}) the event that ends its serialisation. *)
  mutable serving : Packet.t;
  mutable finish : unit -> unit;
  (* [tx_box] is the serialisation time of a [tx_size]-byte packet at the
     current rate, boxed once; [tx_size = -1] until computed and after
     {!set_rate} *)
  mutable tx_size : int;
  mutable tx_box : Time.t;
  slots : Float.Array.t; (* 0: seconds spent transmitting; 1: see above *)
  (* indexed by flow id, which an engine hands out densely from 0 *)
  mutable sinks : (Packet.t -> unit) array;
  mutable delivered_by_flow : int array;
  mutable qlen : int;
  mutable busy : bool;
  mutable drops : int;
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

let no_sink (_ : Packet.t) = ()

(* room for flow id [flow] in the per-flow arrays *)
let reserve_flow t flow =
  let n = Array.length t.sinks in
  if flow >= n then begin
    let m = max (flow + 1) (2 * n) in
    let sinks = Array.make m no_sink and bytes = Array.make m 0 in
    Array.blit t.sinks 0 sinks 0 n;
    Array.blit t.delivered_by_flow 0 bytes 0 n;
    t.sinks <- sinks;
    t.delivered_by_flow <- bytes
  end

let set_sink t ~flow f =
  if flow < 0 then invalid_arg "Bottleneck.set_sink: negative flow id";
  (reserve_flow t flow [@alloc_ok "amortized doubling of the per-flow tables"]);
  t.sinks.(flow) <- f
[@@alloc_free]

let now_s t = Time.to_secs (Engine.now t.engine)
[@@unit_ok "raw-seconds view feeding float trace sinks"]

let set_loss_model t f =
  t.loss_model <- f;
  if Trace.want t.trace Tev.Bottleneck then
    Trace.loss_model t.trace ~now:(now_s t) ~installed:(Option.is_some f)

let record_drop t (pkt : Packet.t) ~reason =
  t.drops <- t.drops + 1;
  (* drops are rare and diagnostic gold, so they are never sampled out *)
  if Trace.want t.trace Tev.Packet then
    Trace.pkt_drop t.trace ~now:(now_s t) ~flow:(Packet.flow pkt)
      ~seq:(Packet.seq pkt) ~reason

let rec deliver t (pkt : Packet.t) =
  let flow = Packet.flow pkt in
  if flow >= Array.length t.sinks then
    (reserve_flow t flow [@alloc_ok "first delivery of a flow with no sink"]);
  t.delivered_by_flow.(flow) <- t.delivered_by_flow.(flow) + Packet.size pkt;
  t.delivered_pkts <- t.delivered_pkts + 1;
  t.queued_pkts <- t.queued_pkts - 1;
  if Trace.want t.trace Tev.Packet then begin
    t.del_count <- t.del_count + 1;
    if t.del_count mod pkt_sample = 0 then
      Trace.pkt_deliver t.trace ~now:(now_s t) ~flow ~seq:(Packet.seq pkt)
        ~qdelay:
          (Float.Array.unsafe_get t.clock 0 -. Float.Array.unsafe_get t.slots 1)
  end;
  (t.sinks.(flow) pkt [@alloc_ok "the sink allocates on its own budget"])
[@@alloc_free]

(* the serialisation of [t.serving] ends *)
and finish t =
  t.qlen <- t.qlen - Packet.size t.serving;
  deliver t t.serving;
  start_next t
[@@alloc_free]

(* The head packet is only committed (taken off the FIFO and scheduled) when
   the link has a positive rate; during an outage (µ = 0, see {!set_rate})
   packets stay queued and the link idles until the rate is restored. *)
and start_next t =
  if Rate.(t.rate <= Rate.zero) || t.fifo_len = 0 then t.busy <- false
  else begin
    let i = t.fifo_head in
    let pkt = t.fifo.(i) in
    Float.Array.unsafe_set t.slots 1 (Float.Array.get t.fifo_at i);
    t.fifo_head <- (i + 1) land (Array.length t.fifo - 1);
    t.fifo_len <- t.fifo_len - 1;
    t.serving <- pkt;
    t.busy <- true;
    (* boxes a new serialisation time once per packet size and rate *)
    let size = Packet.size pkt in
    if size <> t.tx_size then cache_tx_time t size;
    Float.Array.unsafe_set t.slots 0
      (Float.Array.unsafe_get t.slots 0 +. (t.tx_box :> float));
    Engine.schedule_in t.engine t.tx_box t.finish
  end
[@@alloc_free]

and cache_tx_time t size =
  t.tx_box <- Rate.tx_time t.rate (B.of_int size);
  t.tx_size <- size

let create engine (c : Config.t) =
  let rate = Rate.bps_exn (Rate.to_bps c.rate) in
  let policer =
    Option.map
      (fun (prate, burst) ->
        { p_rate = Rate.to_bps prate; p_burst = float_of_int burst;
          tokens = float_of_int burst;
          last_refill = Float.Array.get (Engine.clock engine) 0 })
      c.policer
  in
  let t =
    { engine; clock = Engine.clock engine; rate; drain_rate_hint = rate;
      qdisc = c.qdisc; qdisc_reads_clock = Qdisc.reads_clock c.qdisc;
      random_loss = c.random_loss; loss_model = None;
      policer; fifo = [||]; fifo_at = Float.Array.create 0; fifo_head = 0;
      fifo_len = 0;
      serving = Packet.none;
      finish = ignore; tx_size = -1; tx_box = Time.zero;
      slots = Float.Array.make 2 0.; sinks = [||]; delivered_by_flow = [||];
      qlen = 0; busy = false; drops = 0; offered_pkts = 0;
      delivered_pkts = 0; queued_pkts = 0; trace = c.trace; enq_count = 0;
      del_count = 0 }
  in
  t.finish <- (fun () -> finish t);
  t

let set_rate t rate =
  let r = Rate.to_bps rate in
  if not (Float.is_finite r) || r < 0. then
    invalid_arg "Bottleneck.set_rate: rate must be finite and >= 0";
  if Trace.want t.trace Tev.Bottleneck then
    Trace.rate_set t.trace ~now:(now_s t) ~before:(Rate.to_mbps t.rate)
      ~after:(Rate.to_mbps rate);
  t.rate <- rate;
  t.tx_size <- -1;
  if Rate.(rate > Rate.zero) then begin
    t.drain_rate_hint <- rate;
    (* coming out of an outage: resume draining whatever queued meanwhile
       (a packet already being serialised keeps its old completion time) *)
    if not t.busy then start_next t
  end

(* The refill is [Rate.volume]'s arithmetic on the clock read in place, so
   the tokens, and every verdict, are what the boxed computation gave. *)
let policer_admits t (pkt : Packet.t) =
  match t.policer with
  | None -> true
  | Some p ->
    let now = Float.Array.unsafe_get t.clock 0 in
    let refill = p.p_rate *. (now -. p.last_refill) /. 8. in
    p.tokens <- Float.min p.p_burst (p.tokens +. refill);
    p.last_refill <- now;
    let size = float_of_int (Packet.size pkt) in
    if p.tokens >= size then begin
      p.tokens <- p.tokens -. size;
      true
    end
    else false
[@@alloc_free]

let random_loss_admits t =
  match t.random_loss with
  | None -> true
  | Some (p, rng) -> not (Rng.bool rng ~p)

let loss_model_admits t pkt =
  match t.loss_model with None -> true | Some drop -> not (drop pkt)

(* double the FIFO ring, unrolling it to start at 0 *)
let grow_fifo t =
  let n = Array.length t.fifo in
  let m = max 16 (2 * n) in
  let fifo = Array.make m Packet.none and at = Float.Array.make m 0. in
  for k = 0 to t.fifo_len - 1 do
    let i = (t.fifo_head + k) land (n - 1) in
    fifo.(k) <- t.fifo.(i);
    Float.Array.set at k (Float.Array.get t.fifo_at i)
  done;
  t.fifo <- fifo;
  t.fifo_at <- at;
  t.fifo_head <- 0

let enqueue t (pkt : Packet.t) =
  if pkt == Packet.none then invalid_arg "Bottleneck.enqueue: Packet.none";
  (* {!Engine.now} boxes the clock once per instant: only for a qdisc that
     reads it *)
  let now = if t.qdisc_reads_clock then Engine.now t.engine else Time.zero in
  t.offered_pkts <- t.offered_pkts + 1;
  if not (policer_admits t pkt) then record_drop t pkt ~reason:Tev.Policer
  else if not (random_loss_admits t) then
    record_drop t pkt ~reason:Tev.Random_loss
  else if not (loss_model_admits t pkt) then
    record_drop t pkt ~reason:Tev.Modeled_loss
  else begin
    let size = Packet.size pkt in
    match Qdisc.decide t.qdisc ~now ~qlen_bytes:t.qlen ~pkt_size:size with
    | Qdisc.Drop -> record_drop t pkt ~reason:Tev.Queue_full
    | Qdisc.Admit ->
    t.qlen <- t.qlen + size;
    t.queued_pkts <- t.queued_pkts + 1;
    if Trace.want t.trace Tev.Packet then begin
      t.enq_count <- t.enq_count + 1;
      if t.enq_count mod pkt_sample = 0 then
        Trace.pkt_enqueue t.trace ~now:(now_s t) ~flow:(Packet.flow pkt)
          ~seq:(Packet.seq pkt) ~qlen:t.qlen
    end;
    if t.fifo_len = Array.length t.fifo then grow_fifo t;
    let i = (t.fifo_head + t.fifo_len) land (Array.length t.fifo - 1) in
    t.fifo.(i) <- pkt;
    Float.Array.set t.fifo_at i (Float.Array.unsafe_get t.clock 0);
    t.fifo_len <- t.fifo_len + 1;
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

let delivered_bytes t ~flow =
  if flow >= 0 && flow < Array.length t.delivered_by_flow then
    t.delivered_by_flow.(flow)
  else 0

let busy_time t = Time.secs (Float.Array.get t.slots 0)

let capacity_bytes t = Qdisc.capacity_bytes t.qdisc

let offered_packets t = t.offered_pkts

let delivered_packets t = t.delivered_pkts

let queued_packets t = t.queued_pkts
