module Engine = Nimbus_sim.Engine
module Packet = Nimbus_sim.Packet
module Topology = Nimbus_topology.Topology
module Time = Units.Time
module Rate = Units.Rate
module B = Units.Bytes

type source =
  | Backlogged
  | Finite of int
  | App_limited

let reorder_window = 3

let pkt_size = Packet.default_data_size

(* share of [prop_rtt] on the forward leg, after the route *)
let fwd_frac = 0.5

(* power of two: ring indices wrap with [land (capacity - 1)] *)
let rate_ring_capacity = 2048

let empty_floats = Float.Array.create 0

(* A growable FIFO of ints: a power-of-two ring, live in [head, head + len)
   mod capacity.  It starts empty, so an idle flow costs no buffer. *)
type ring = {
  mutable buf : int array;
  mutable head : int;
  mutable len : int;
}

let ring () = { buf = [||]; head = 0; len = 0 }

let ring_grow r =
  let n = Array.length r.buf in
  let buf = Array.make (max 16 (2 * n)) 0 in
  for k = 0 to r.len - 1 do
    buf.(k) <- r.buf.((r.head + k) land (n - 1))
  done;
  r.buf <- buf;
  r.head <- 0

let ring_push r x =
  if r.len = Array.length r.buf then
    (ring_grow r [@alloc_ok "amortized ring doubling"]);
  r.buf.((r.head + r.len) land (Array.length r.buf - 1)) <- x;
  r.len <- r.len + 1
[@@alloc_free]

(* the ring must be non-empty *)
let ring_pop r =
  let x = r.buf.(r.head) in
  r.head <- (r.head + 1) land (Array.length r.buf - 1);
  r.len <- r.len - 1;
  x
[@@alloc_free]

(* The flow's float state, in a record of floats only: OCaml stores those
   unboxed, so the per-ACK updates allocate nothing (a float stored in a
   mixed record is a fresh 2-word box). *)
type floats = {
  mutable srtt : float;
  mutable min_rtt : float;
  mutable last_rtt : float;
  mutable last_progress : float;
  mutable send_rate : float;
  mutable recv_rate : float;
  (* An ACK-clocked flow keeps no tick, only an RTO deadline timer: the grid
     instant it is armed for, the grid instant before it, and the grid
     instant (at or before now) it was stepped from.  A ticking flow's
     [rto_prev] stays NaN, which no deadline test passes. *)
  mutable rto_at : float;
  mutable rto_prev : float;
  mutable rto_base : float;
  mutable pace_credit : float; (* bytes the pacer may send right now *)
  mutable last_pace_at : float;
  (* fault hook: extra one-way propagation delay (link delay steps/jitter) *)
  mutable extra_fwd_delay : float;
}

type t = {
  engine : Engine.t;
  clock : Float.Array.t; (* {!Engine.clock} *)
  (* the route's topology ingress, the flow's two timer callbacks ([tick]
     is the RTO deadline timer of a tickless flow) and the handlers of its
     two delivery legs.  Mutable only because each closes over the flow
     itself: they are set once in [create_via] and never change afterwards,
     so rescheduling a timer or moving a packet allocates no closure. *)
  mutable enqueue : Packet.t -> unit;
  mutable tick : unit -> unit;
  mutable pace : unit -> unit;
  mutable fwd_leg : Packet.t -> unit; (* the receiver gets a packet *)
  mutable ack_leg : Packet.t -> unit; (* the sender gets its ACK *)
  (* the forward leg's delay (with any injected extra) and the reverse
     leg's, boxed once instead of per packet *)
  mutable fwd_box : Time.t;
  rev_box : Time.t;
  cc : Cc_types.t;
  (* the one ACK record handed to [cc.on_ack], refilled for every ACK; no
     controller keeps it past the call *)
  ack : Cc_types.ack;
  flow_id : int;
  fwd_delay : float;
  source : source;
  on_complete : (t -> unit) option;
  tick_interval : float;
  start_time : float;
  f : floats;
  (* sender state *)
  mutable next_seq : int;
  (* The scoreboard of outstanding packets: direct-mapped, seq [s] lives at
     index [s land (capacity - 1)] with its send time and whether it is a
     retransmission; [sb_seq] holds -1 at a free index.  Two live seqs
     never share an index: the table doubles until they do not.  It starts
     empty. *)
  mutable sb_seq : int array;
  mutable sb_sent : Float.Array.t;
  mutable sb_retx : bool array;
  mutable outstanding : int; (* live entries *)
  mutable send_order : ring; (* seqs in transmission order; may hold acked *)
  retx_queue : ring;
  mutable inflight_bytes : int;
  mutable highest_acked : int;
  mutable supplied_bytes : int; (* App_limited budget *)
  mutable sent_app_bytes : int; (* consumed from budget / finite size *)
  mutable acked_bytes : int;
  mutable recv_bytes : int;
  mutable losses : int;
  (* Ring of acknowledged packets, for the Eq. 2 rate estimators, as three
     parallel arrays so storing an ACK boxes nothing.  It starts empty and
     doubles from 16 up to [rate_ring_capacity]; below that it never wraps,
     so growing is a straight copy. *)
  mutable acked_sent_at : Float.Array.t;
  mutable acked_at : Float.Array.t;
  mutable acked_cum_bytes : int array; (* running total including the entry *)
  mutable acked_head : int; (* next write index *)
  mutable acked_count : int;
  mutable pacing_scheduled : bool;
  mutable active : bool;
  mutable completion_time : float option;
  (* fault hook: a reverse-path loss process (ACK loss) *)
  mutable ack_loss : (unit -> bool) option;
}

let[@inline] now_secs t = Float.Array.unsafe_get t.clock 0

let id t = t.flow_id

let stopped t = not t.active

let received_bytes t = t.recv_bytes

let acked_bytes t = t.acked_bytes

let lost_packets t = t.losses

let inflight_bytes t = t.inflight_bytes

let srtt t = Time.secs t.f.srtt

let min_rtt t = Time.secs t.f.min_rtt

let last_rtt t = Time.secs t.f.last_rtt

let send_rate t = Rate.bps t.f.send_rate

let recv_rate t = Rate.bps t.f.recv_rate

let completion_time t = Option.map Time.secs t.completion_time

let start_time t = Time.secs t.start_time

let supply t bytes =
  match t.source with
  | App_limited -> t.supplied_bytes <- t.supplied_bytes + bytes
  | Backlogged | Finite _ -> ()

module Control = struct
  type t =
    | Extra_delay of Time.t
    | Ack_loss of (unit -> bool) option
    | Stop
end

(* the forward leg's delay: the receiver sees a packet after the forward
   propagation plus any injected delay step or jitter *)
let fwd_box ~fwd_delay ~extra = Time.secs (Float.max 0. (fwd_delay +. extra))

(* every control mutation funnels through {!apply}, so this is the single
   audit/trace point for external interference with a flow *)
let trace_control t control ~value =
  let tr = Engine.trace t.engine in
  if Nimbus_trace.Trace.want tr Nimbus_trace.Event.Flow then
    Nimbus_trace.Trace.flow_control tr ~now:(now_secs t) ~flow:t.flow_id
      ~control ~value

let apply t (c : Control.t) =
  match c with
  | Control.Extra_delay extra ->
    let extra = Time.to_secs extra in
    if not (Float.is_finite extra) then
      invalid_arg "Flow.apply: non-finite extra delay";
    if extra +. t.fwd_delay < 0. then
      invalid_arg "Flow.apply: total forward delay would be negative";
    t.f.extra_fwd_delay <- extra;
    t.fwd_box <- fwd_box ~fwd_delay:t.fwd_delay ~extra;
    trace_control t Nimbus_trace.Event.C_extra_delay ~value:extra
  | Control.Ack_loss (Some f) ->
    t.ack_loss <- Some f;
    trace_control t Nimbus_trace.Event.C_ack_loss ~value:1.
  | Control.Ack_loss None ->
    t.ack_loss <- None;
    trace_control t Nimbus_trace.Event.C_ack_off ~value:0.
  | Control.Stop ->
    t.active <- false;
    trace_control t Nimbus_trace.Event.C_stop ~value:0.

let extra_delay t = Time.secs t.f.extra_fwd_delay

(* --- data availability -------------------------------------------------- *)

let new_data_available t =
  match t.source with
  | Backlogged -> true
  | Finite size -> t.sent_app_bytes < size
  | App_limited -> t.sent_app_bytes + pkt_size <= t.supplied_bytes

let data_available t = t.retx_queue.len > 0 || new_data_available t

let window_allows t =
  float_of_int (t.inflight_bytes + pkt_size)
  <= B.to_float (t.cc.Cc_types.cwnd ())

(* --- rate estimation (Eq. 2) -------------------------------------------- *)

let grow_acked t =
  let cap = Array.length t.acked_cum_bytes in
  let ncap = max 16 (2 * cap) in
  let sent = Float.Array.make ncap 0. and acked = Float.Array.make ncap 0. in
  let cum = Array.make ncap 0 in
  Float.Array.blit t.acked_sent_at 0 sent 0 cap;
  Float.Array.blit t.acked_at 0 acked 0 cap;
  Array.blit t.acked_cum_bytes 0 cum 0 cap;
  t.acked_sent_at <- sent;
  t.acked_at <- acked;
  t.acked_cum_bytes <- cum;
  t.acked_head <- cap

(* inlined: a float argument to a call is boxed *)
let[@inline] push_acked t ~sent_at ~acked_at ~cum_bytes =
  if t.acked_count = Array.length t.acked_cum_bytes
     && t.acked_count < rate_ring_capacity
  then grow_acked t;
  let i = t.acked_head in
  Float.Array.set t.acked_sent_at i sent_at;
  Float.Array.set t.acked_at i acked_at;
  t.acked_cum_bytes.(i) <- cum_bytes;
  t.acked_head <- (i + 1) land (Array.length t.acked_cum_bytes - 1);
  if t.acked_count < rate_ring_capacity then t.acked_count <- t.acked_count + 1

(* ring index of the k-th newest entry (k = 0 is the newest) *)
let nth_acked_from_end t k =
  (t.acked_head - 1 - k) land (Array.length t.acked_cum_bytes - 1)

(* Number of packets forming "one window" for the S/R measurement: the data
   actually in flight, i.e. one RTT's worth of packets at the current rate.
   (Using the controller's window *limit* would smear the estimate over many
   RTTs whenever the limit far exceeds actual usage.) *)
let measurement_window t =
  let n = t.inflight_bytes / pkt_size in
  max 8 (min n (rate_ring_capacity - 1))

let update_rates t =
  let n = measurement_window t in
  if t.acked_count >= n + 1 then begin
    let newest = nth_acked_from_end t 0 in
    let oldest = nth_acked_from_end t n in
    let nbytes = t.acked_cum_bytes.(newest) - t.acked_cum_bytes.(oldest) in
    let send_dt =
      Float.Array.get t.acked_sent_at newest
      -. Float.Array.get t.acked_sent_at oldest
    in
    let recv_dt =
      Float.Array.get t.acked_at newest -. Float.Array.get t.acked_at oldest
    in
    if send_dt > 0. then t.f.send_rate <- float_of_int (nbytes * 8) /. send_dt;
    if recv_dt > 0. then t.f.recv_rate <- float_of_int (nbytes * 8) /. recv_dt
  end

(* --- retransmission timeout --------------------------------------------- *)

(* The RTO deadline test at instant [at]: more than the RTO, 1 s before the
   first RTT sample and max(0.4 s, 3 srtt) after, has passed since the last
   progress.  It is monotone in [at].  Inlined, so that no float is boxed
   per ACK or per grid step. *)
let[@inline] rto_due t at =
  let elapsed = at -. t.f.last_progress in
  if Float.is_nan t.f.srtt then elapsed > 1.0
  else elapsed > 0.4 && elapsed > 3.0 *. t.f.srtt
[@@alloc_free]

(* Arm the deadline timer at the first instant of the tick grid after
   [from] (itself a grid instant) where the deadline test passes.  The grid
   is stepped by the same additions the tick makes, and the timer goes in
   at the grid value itself, so [check_rto] sees the instants a tick would
   show it. *)
let arm_rto t ~from =
  let prev = ref from and at = ref (from +. t.tick_interval) in
  while not (rto_due t !at) do
    prev := !at;
    at := !at +. t.tick_interval
  done;
  t.f.rto_base <- from;
  t.f.rto_prev <- !prev;
  t.f.rto_at <- !at;
  Engine.schedule_at t.engine (Time.secs !at) t.tick

(* --- the scoreboard ------------------------------------------------------- *)

(* index of live seq [seq], or -1 *)
let sb_find t seq =
  let n = Array.length t.sb_seq in
  if n = 0 then -1
  else begin
    let i = seq land (n - 1) in
    if t.sb_seq.(i) = seq then i else -1
  end
[@@alloc_free]

let sb_remove t i =
  t.sb_seq.(i) <- -1;
  t.outstanding <- t.outstanding - 1
[@@alloc_free]

(* double the table; live seqs with distinct indices mod n keep distinct
   indices mod 2n *)
let sb_grow t =
  let n = Array.length t.sb_seq in
  let m = max 16 (2 * n) in
  let seqs = Array.make m (-1) and sent = Float.Array.make m 0. in
  let retx = Array.make m false in
  for i = 0 to n - 1 do
    let s = t.sb_seq.(i) in
    if s >= 0 then begin
      let j = s land (m - 1) in
      seqs.(j) <- s;
      Float.Array.set sent j (Float.Array.get t.sb_sent i);
      retx.(j) <- t.sb_retx.(i)
    end
  done;
  t.sb_seq <- seqs;
  t.sb_sent <- sent;
  t.sb_retx <- retx

(* record [seq] as sent now *)
let rec sb_add t seq ~retx =
  let n = Array.length t.sb_seq in
  let i = seq land (n - 1) in
  if n = 0 || (t.sb_seq.(i) >= 0 && t.sb_seq.(i) <> seq) then begin
    (sb_grow t [@alloc_ok "amortized scoreboard doubling"]);
    sb_add t seq ~retx
  end
  else begin
    if t.sb_seq.(i) < 0 then t.outstanding <- t.outstanding + 1;
    t.sb_seq.(i) <- seq;
    Float.Array.set t.sb_sent i (now_secs t);
    t.sb_retx.(i) <- retx
  end
[@@alloc_free]

(* every live seq, ascending, and the scoreboard emptied *)
let sb_drain t =
  let live = Array.make t.outstanding 0 and k = ref 0 in
  Array.iteri
    (fun i s ->
      if s >= 0 then begin
        live.(!k) <- s;
        incr k;
        t.sb_seq.(i) <- -1
      end)
    t.sb_seq;
  t.outstanding <- 0;
  Array.sort Int.compare live;
  live

(* A completed [Finite] transfer with nothing in flight and nothing to
   resend has no RTO to check and nothing to send: its timers stop.  Only the
   ACK that empties the scoreboard can make a flow finished (every acked
   packet was received first), so [handle_ack] releases it there. *)
let finished t =
  Option.is_some t.completion_time
  && t.outstanding = 0
  && not (data_available t)

(* A finished flow keeps only its counters: no later event reads its rate
   ring, its scoreboard or its send order. *)
let release t =
  t.sb_seq <- [||];
  t.sb_sent <- empty_floats;
  t.sb_retx <- [||];
  t.send_order <- ring ();
  t.acked_sent_at <- empty_floats;
  t.acked_at <- empty_floats;
  t.acked_cum_bytes <- [||];
  t.acked_head <- 0;
  t.acked_count <- 0

(* --- transmission ------------------------------------------------------- *)

let receiver_got t (pkt : Packet.t) =
  t.recv_bytes <- t.recv_bytes + Packet.size pkt;
  match t.source with
  | Finite size when t.completion_time = None && t.recv_bytes >= size ->
    t.completion_time <- Some (now_secs t);
    (match t.on_complete with Some f -> f t | None -> ())
  | _ -> ()

(* The receiver sees a packet after the forward leg, and its ACK lands after
   the reverse leg — unless the ACK-path loss process eats it, in which case
   the sender's dup-ACK / RTO machinery takes over. *)
let receiver_leg t (pkt : Packet.t) =
  (receiver_got t pkt [@alloc_ok "once per flow: the completion time"]);
  let ack_dropped =
    match t.ack_loss with
    | Some lost -> (lost () [@alloc_ok "opaque fault hook"])
    | None -> false
  in
  if not ack_dropped then
    Engine.schedule_pkt_in t.engine t.rev_box t.ack_leg pkt
[@@alloc_free]

(* the packet finished serialising at the route's last link *)
let handle_delivery t (pkt : Packet.t) =
  Engine.schedule_pkt_in t.engine t.fwd_box t.fwd_leg pkt
[@@alloc_free]

let send_packet t ~seq ~retx =
  (* [~now] is ignored; [Time.zero] boxes nothing *)
  let pkt =
    Packet.make ~flow:t.flow_id ~seq ~size:pkt_size ~now:Time.zero ()
  in
  sb_add t seq ~retx;
  ring_push t.send_order seq;
  t.inflight_bytes <- t.inflight_bytes + pkt_size;
  t.enqueue pkt

let rec send_next t =
  if t.retx_queue.len > 0 then
    send_packet t ~seq:(ring_pop t.retx_queue) ~retx:true
  else begin
    let seq = t.next_seq in
    t.next_seq <- t.next_seq + 1;
    t.sent_app_bytes <- t.sent_app_bytes + pkt_size;
    send_packet t ~seq ~retx:false
  end

(* A scheduled pacer reads the rate at its next wake, at most 2 ms away,
   and a controller never goes from [Some] back to [None] (the
   {!Cc_types.t.pacing_rate} contract), so asking again here would only
   find [Some _] and leave the pacer as it is. *)
and try_send t =
  if t.active && not t.pacing_scheduled then begin
    match t.cc.Cc_types.pacing_rate () with
    | Some _ -> ensure_pacing t
    | None ->
      while window_allows t && data_available t do
        send_next t
      done
  end

and ensure_pacing t =
  if not t.pacing_scheduled then begin
    t.pacing_scheduled <- true;
    t.f.last_pace_at <- now_secs t;
    pace_one t
  end

(* Credit-based pacing.  A naive "sleep one packet time at the current rate"
   pacer aliases badly when the rate is modulated: at a low base rate the
   inter-packet sleep exceeds an entire pulse lobe, so the waveform is never
   sampled.  Instead accumulate send credit at the instantaneous rate and
   wake at least every 2 ms. *)
and pace_one t =
  if not t.active then t.pacing_scheduled <- false
  else begin
    match t.cc.Cc_types.pacing_rate () with
    | None ->
      t.pacing_scheduled <- false;
      try_send t
    | Some rate ->
      let now = now_secs t in
      let rate = Float.max (Rate.to_bps rate) 16_000. in
      let dt = now -. t.f.last_pace_at in
      t.f.last_pace_at <- now;
      let burst_cap = float_of_int (2 * pkt_size) in
      t.f.pace_credit <-
        Float.min burst_cap (t.f.pace_credit +. (rate *. dt /. 8.));
      let pkt = float_of_int pkt_size in
      while
        t.f.pace_credit >= pkt && window_allows t && data_available t
      do
        send_next t;
        t.f.pace_credit <- t.f.pace_credit -. pkt
      done;
      let interval =
        Float.max 0.0002 (Float.min 0.002 (pkt *. 8. /. rate))
      in
      Engine.schedule_in t.engine (Time.secs interval) t.pace
  end

(* --- acknowledgements and loss detection -------------------------------- *)

and declare_front_losses t =
  (* pop acked entries and declare stragglers behind the reordering window *)
  let continue = ref true in
  while !continue && t.send_order.len > 0 do
    let seq = t.send_order.buf.(t.send_order.head) in
    let i = sb_find t seq in
    if i < 0 then ignore (ring_pop t.send_order)
    else if seq <= t.highest_acked - reorder_window then begin
      ignore (ring_pop t.send_order);
      sb_remove t i;
      t.inflight_bytes <- t.inflight_bytes - pkt_size;
      t.losses <- t.losses + 1;
      ring_push t.retx_queue seq;
      t.cc.Cc_types.on_loss
        { Cc_types.now = Engine.now t.engine; seq; bytes = pkt_size;
          inflight_bytes = t.inflight_bytes; kind = `Dupack }
    end
    else continue := false
  done

and handle_ack t (pkt : Packet.t) =
  let seq = Packet.seq pkt in
  let i = sb_find t seq in
  (* i < 0: a late ACK for a packet already declared lost *)
  if i >= 0 then begin
    let now = now_secs t and f = t.f in
    let sent_at = Float.Array.get t.sb_sent i in
    sb_remove t i;
    t.inflight_bytes <- t.inflight_bytes - pkt_size;
    t.acked_bytes <- t.acked_bytes + pkt_size;
    f.last_progress <- now;
    (* Karn's algorithm: a retransmitted sequence number gives an ambiguous
       RTT sample (the ACK may be for the original transmission), so skip
       RTT and rate accounting for it *)
    if not t.sb_retx.(i) then begin
      let rtt = now -. sent_at in
      f.last_rtt <- rtt;
      if Float.is_nan f.min_rtt || rtt < f.min_rtt then f.min_rtt <- rtt;
      f.srtt <-
        (if Float.is_nan f.srtt then rtt
         else (0.875 *. f.srtt) +. (0.125 *. rtt));
      let prev_cum =
        if t.acked_count = 0 then 0
        else t.acked_cum_bytes.(nth_acked_from_end t 0)
      in
      push_acked t ~sent_at ~acked_at:now ~cum_bytes:(prev_cum + pkt_size);
      update_rates t
    end;
    if seq > t.highest_acked then t.highest_acked <- seq;
    declare_front_losses t;
    let a = t.ack in
    a.times.now <- Time.secs now;
    a.times.rtt <- Time.secs f.last_rtt;
    a.times.min_rtt <- Time.secs f.min_rtt;
    a.times.srtt <- Time.secs f.srtt;
    a.seq <- seq;
    a.inflight_bytes <- t.inflight_bytes;
    a.delivered_bytes <- t.acked_bytes;
    t.cc.Cc_types.on_ack a;
    try_send t;
    (* the ACK moved the deadline; by monotonicity, it now falls before the
       armed instant iff the grid instant before that one is due *)
    if rto_due t f.rto_prev then arm_rto t ~from:f.rto_base;
    if finished t then release t
  end

let check_rto t =
  let now = now_secs t in
  if t.inflight_bytes > 0 && rto_due t now then begin
    (* whole window presumed lost *)
    let bytes = t.inflight_bytes in
    Array.iter
      (fun seq ->
        t.losses <- t.losses + 1;
        ring_push t.retx_queue seq)
      (sb_drain t);
    t.inflight_bytes <- 0;
    t.send_order.len <- 0;
    t.f.last_progress <- now;
    t.cc.Cc_types.on_loss
      { Cc_types.now = Time.secs now; seq = t.highest_acked + 1; bytes;
        inflight_bytes = 0; kind = `Timeout };
    try_send t
  end

let tick_loop t =
  if t.active && not (finished t) then begin
    Nimbus_trace.Span.enter Nimbus_trace.Span.Flow_tick;
    check_rto t;
    (match t.cc.Cc_types.on_tick with
    | Some f ->
      f
        { Cc_types.now = Engine.now t.engine;
          send_rate = Rate.bps t.f.send_rate;
          recv_rate = Rate.bps t.f.recv_rate; rtt = Time.secs t.f.last_rtt;
          srtt = Time.secs t.f.srtt; min_rtt = Time.secs t.f.min_rtt;
          inflight_bytes = t.inflight_bytes;
          delivered_bytes = t.acked_bytes; lost_packets = t.losses }
    | None -> ());
    try_send t;
    Nimbus_trace.Span.leave Nimbus_trace.Span.Flow_tick;
    Engine.schedule_in t.engine (Time.secs t.tick_interval) t.tick
  end

(* The RTO deadline timer of a tickless flow.  An earlier arming may have
   left a stale timer behind: only the first timer at the armed instant
   acts. *)
let rto_timer t =
  let now = now_secs t in
  if Float.equal now t.f.rto_at then begin
    Nimbus_trace.Span.enter Nimbus_trace.Span.Flow_tick;
    if t.active && not (finished t) then begin
      check_rto t;
      arm_rto t ~from:now
    end;
    Nimbus_trace.Span.leave Nimbus_trace.Span.Flow_tick
  end

let create_via topo ~route ~cc ~prop_rtt ?(source = Backlogged) ?start
    ?on_complete ?(tick_interval = Time.ms 10.) () =
  let engine = Topology.engine topo in
  let prop_rtt = Time.to_secs prop_rtt in
  let tick_interval = Time.to_secs tick_interval in
  if not (Float.is_finite prop_rtt) || prop_rtt < 0. then
    invalid_arg "Flow.create_via: prop_rtt must be finite and >= 0";
  if not (Float.is_finite tick_interval) || tick_interval <= 0. then
    invalid_arg "Flow.create_via: tick_interval must be finite and > 0";
  let flow_id = Engine.fresh_flow_id engine in
  let start_time =
    match start with
    | Some s -> Time.to_secs s
    | None -> Time.to_secs (Engine.now engine)
  in
  let tickless =
    Option.is_none cc.Cc_types.on_tick
    && Option.is_none (cc.Cc_types.pacing_rate ())
    && (match source with App_limited -> false | Backlogged | Finite _ -> true)
  in
  let fwd_delay = prop_rtt *. fwd_frac in
  let t =
    { engine; clock = Engine.clock engine; enqueue = ignore; tick = ignore;
      pace = ignore; fwd_leg = ignore; ack_leg = ignore;
      fwd_box = fwd_box ~fwd_delay ~extra:0.;
      rev_box = Time.secs (prop_rtt *. (1. -. fwd_frac)); cc;
      ack =
        { Cc_types.times =
            { now = Time.zero; rtt = Time.unknown; min_rtt = Time.unknown;
              srtt = Time.unknown };
          seq = 0; bytes = pkt_size; inflight_bytes = 0; delivered_bytes = 0 };
      flow_id; fwd_delay; source; on_complete; tick_interval; start_time;
      f =
        { srtt = nan; min_rtt = nan; last_rtt = nan;
          last_progress = start_time; send_rate = nan; recv_rate = nan;
          rto_at = start_time;
          rto_prev = (if tickless then start_time else nan);
          rto_base = start_time; pace_credit = 0.; last_pace_at = start_time;
          extra_fwd_delay = 0. };
      next_seq = 0; sb_seq = [||]; sb_sent = empty_floats; sb_retx = [||];
      outstanding = 0; send_order = ring (); retx_queue = ring ();
      inflight_bytes = 0; highest_acked = -1; supplied_bytes = 0;
      sent_app_bytes = 0; acked_bytes = 0; recv_bytes = 0; losses = 0;
      acked_sent_at = empty_floats; acked_at = empty_floats;
      acked_cum_bytes = [||]; acked_head = 0; acked_count = 0;
      pacing_scheduled = false; active = true; completion_time = None;
      ack_loss = None }
  in
  t.enqueue <-
    Topology.attach topo ~route ~flow:flow_id ~sink:(fun pkt ->
        handle_delivery t pkt);
  t.fwd_leg <- (fun pkt -> receiver_leg t pkt);
  t.ack_leg <- (fun pkt -> handle_ack t pkt);
  t.pace <- (fun () -> pace_one t);
  (* each closure captures only [t], to keep a flow's set-up small *)
  if tickless then begin
    t.tick <- (fun () -> rto_timer t);
    Engine.schedule_at engine (Time.secs start_time) (fun () ->
        try_send t;
        arm_rto t ~from:t.start_time)
  end
  else begin
    t.tick <- (fun () -> tick_loop t);
    Engine.schedule_at engine (Time.secs start_time) (fun () ->
        try_send t;
        Engine.schedule_in t.engine (Time.secs t.tick_interval) t.tick)
  end;
  t
