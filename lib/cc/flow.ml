module Engine = Nimbus_sim.Engine
module Packet = Nimbus_sim.Packet
module Topology = Nimbus_topology.Topology
module Time = Units.Time
module Rate = Units.Rate

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

(* the tick of a flow created without [~tick_interval] *)
let default_tick_interval = Time.ms 10.

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
  mutable fwd_delay : float; (* the forward leg's propagation, before faults *)
  (* fault hook: extra one-way propagation delay (link delay steps/jitter) *)
  mutable extra_fwd_delay : float;
  mutable start_time : float;
  mutable tick_interval : float;
  mutable completion : float; (* NaN until a [Finite] transfer completes *)
}

(* A record serves one flow after another: a flow that its owner gives
   up ({!recycle}) hands its whole record, once released, to the next
   flow made on its engine.  Each flow so carried is an incarnation, with
   its own id from {!Engine.fresh_flow_id}, and {!init} sets every field
   of it. *)
type t = {
  engine : Engine.t;
  clock : Float.Array.t; (* {!Engine.clock} *)
  (* The route's topology ingress and the flow's handlers, each closing
     over the record, so that moving a packet or rescheduling a timer
     allocates no closure.  [deliver] (the route's sink), [fwd_leg] (the
     receiver gets a packet), [ack_leg] (the sender gets its ACK) and
     [start] are made with the record and serve every incarnation: a
     packet leg drops a packet of an earlier incarnation by its flow id,
     and an incarnation is released only after its start event ran.
     [timer] (the tick, or a tickless flow's RTO deadline timer) and
     [pace] capture their incarnation's id, so that a timer an earlier
     incarnation left behind acts on nothing.  A ticking flow makes its
     [pace] in {!init}, a tickless one (whose controller does not pace
     at the start) only if it ever paces; [pace_id] says whose it is. *)
  mutable enqueue : Packet.t -> unit;
  mutable deliver : Packet.t -> unit;
  mutable fwd_leg : Packet.t -> unit;
  mutable ack_leg : Packet.t -> unit;
  mutable start : unit -> unit;
  mutable timer : unit -> unit;
  mutable pace : unit -> unit;
  mutable pace_id : int;
  (* the forward leg's delay (with any injected extra) and the reverse
     leg's, boxed once per incarnation instead of per packet *)
  mutable fwd_box : Time.t;
  mutable rev_box : Time.t;
  mutable cc : Cc_types.t;
  (* the records handed to [cc.on_ack], [cc.on_loss] and [cc.on_tick],
     refilled for every event; no controller keeps one past the call.  The
     loss and tick records are made at the record's first loss and first
     tick (many flows never see either), and later incarnations refill
     them. *)
  ack : Cc_types.ack;
  mutable loss : Cc_types.loss option;
  mutable report : Cc_types.tick option;
  mutable flow_id : int;
  mutable source : source;
  mutable on_complete : (t -> unit) option;
  mutable on_release : (t -> unit) option;
  mutable tickless : bool;
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
  send_order : ring; (* seqs in transmission order; may hold acked *)
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
  (* fault hook: a reverse-path loss process (ACK loss) *)
  mutable ack_loss : (unit -> bool) option;
  (* the owner gave the incarnation up ({!recycle}); it has been released
     ({!release}) *)
  mutable given_up : bool;
  mutable released : bool;
  (* [Spare t], made once with the record, so handing it on allocates
     nothing *)
  mutable spare : Engine.spare;
}

(* a record waiting in its engine's recycler for the next flow *)
type Engine.spare += Spare of t

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

let completion_time t =
  if Float.is_nan t.f.completion then None else Some (Time.secs t.f.completion)

let start_time t = Time.secs t.f.start_time

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
let[@inline] fwd_box ~fwd_delay ~extra =
  Time.secs (Float.max 0. (fwd_delay +. extra))

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
    if extra +. t.f.fwd_delay < 0. then
      invalid_arg "Flow.apply: total forward delay would be negative";
    t.f.extra_fwd_delay <- extra;
    t.fwd_box <- fwd_box ~fwd_delay:t.f.fwd_delay ~extra;
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
  float_of_int (t.inflight_bytes + pkt_size) <= t.cc.Cc_types.out.cwnd

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
  then (grow_acked t [@alloc_ok "amortized rate-ring doubling"]);
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
   [rto_base] (itself a grid instant) where the deadline test passes.  The
   grid is stepped by the same additions the tick makes, and the timer goes
   in at the grid value itself, so [check_rto] sees the instants a tick
   would show it.  The step starts from the float record and the instant
   goes to the engine's key register, so arming boxes nothing. *)
let arm_rto t =
  let from = t.f.rto_base in
  let prev = ref from and at = ref (from +. t.f.tick_interval) in
  while not (rto_due t !at) do
    prev := !at;
    at := !at +. t.f.tick_interval
  done;
  t.f.rto_prev <- !prev;
  t.f.rto_at <- !at;
  Float.Array.unsafe_set (Engine.key t.engine) 0 !at;
  Engine.schedule_at_key t.engine t.timer
[@@alloc_free]

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

(* Push every live seq of the table [seqs] onto [r], ascending, and free
   its index.  Two live seqs never share an index, but they may lie more
   than the table's length apart, so the walk goes up from the lowest live
   seq to the highest and looks each one up: no buffer, no sort. *)
let sb_drain seqs r =
  let mask = Array.length seqs - 1 in
  let lo = ref max_int and hi = ref (-1) in
  for i = 0 to mask do
    let s = seqs.(i) in
    if s >= 0 then begin
      if s < !lo then lo := s;
      if s > !hi then hi := s
    end
  done;
  for s = !lo to !hi do
    let i = s land mask in
    if seqs.(i) = s then begin
      seqs.(i) <- -1;
      ring_push r s
    end
  done
[@@alloc_free]

let rto_order seqs =
  let r = ring () in
  sb_drain seqs r;
  Array.init r.len (fun k -> r.buf.((r.head + k) land (Array.length r.buf - 1)))

(* A completed [Finite] transfer with nothing in flight and nothing to
   resend has no RTO to check and nothing to send: its timers stop.  Only the
   ACK that empties the scoreboard can make a flow finished (every acked
   packet was received first), so [handle_ack] releases it there. *)
let finished t =
  (not (Float.is_nan t.f.completion))
  && t.outstanding = 0
  && not (data_available t)

(* A given-up, released flow's whole record goes to the engine's
   recycler, and the next {!create_via} on the engine makes its next
   incarnation; then its release hook runs.  Nothing of the incarnation
   calls its controller again: its scoreboard is empty, so a late ACK
   finds no seq, and its timers and pacer see it finished. *)
let hand_on t =
  Engine.put_spare t.engine t.spare;
  match t.on_release with
  | Some f -> (f t [@alloc_ok "opaque release hook"])
  | None -> ()
[@@alloc_free]

(* A finished flow is released: no later event of its incarnation reads
   more than its counters.  Released with nothing outstanding, its
   scoreboard is all -1 and its retransmit ring empty. *)
let release t =
  if not t.released then begin
    t.released <- true;
    if t.given_up then hand_on t
  end
[@@alloc_free]

let recycle t =
  if not t.given_up then begin
    t.given_up <- true;
    if t.released then hand_on t
  end
[@@alloc_free]

(* --- controller events --------------------------------------------------- *)

(* The loss record is made at the flow's first loss and refilled for every
   loss after it; its time sits in an all-float sub-record, so a loss
   allocates nothing. *)
let report_loss t ~seq ~bytes kind =
  let l =
    match t.loss with
    | Some l -> l
    | None ->
      let l =
        ({ Cc_types.times = { now = Time.zero }; seq; bytes;
           inflight_bytes = 0; kind }
         [@alloc_ok "once per flow: its first loss"])
      in
      t.loss <- (Some l [@alloc_ok "once per flow: its first loss"]);
      l
  in
  l.times.now <- Time.secs (now_secs t);
  l.seq <- seq;
  l.bytes <- bytes;
  l.inflight_bytes <- t.inflight_bytes;
  l.kind <- kind;
  (t.cc.Cc_types.on_loss l [@alloc_ok "opaque controller hook"])
[@@alloc_free]

(* The tick record, made at the flow's first tick and refilled from its
   state.  A time or rate field is a box, replaced only when its value
   moved: NaN stands for NaN, and no rate or RTT is ever -0. *)
let report t =
  let f = t.f in
  let r =
    match t.report with
    | Some r -> r
    | None ->
      let r =
        { Cc_types.now = Time.zero; send_rate = Rate.bps f.send_rate;
          recv_rate = Rate.bps f.recv_rate; rtt = Time.secs f.last_rtt;
          srtt = Time.secs f.srtt; min_rtt = Time.secs f.min_rtt;
          inflight_bytes = 0; delivered_bytes = 0; lost_packets = 0 }
      in
      t.report <- Some r;
      r
  in
  r.now <- Engine.now t.engine;
  if not (Float.equal (r.send_rate :> float) f.send_rate) then
    r.send_rate <- Rate.bps f.send_rate;
  if not (Float.equal (r.recv_rate :> float) f.recv_rate) then
    r.recv_rate <- Rate.bps f.recv_rate;
  if not (Float.equal (r.rtt :> float) f.last_rtt) then
    r.rtt <- Time.secs f.last_rtt;
  if not (Float.equal (r.srtt :> float) f.srtt) then r.srtt <- Time.secs f.srtt;
  if not (Float.equal (r.min_rtt :> float) f.min_rtt) then
    r.min_rtt <- Time.secs f.min_rtt;
  r.inflight_bytes <- t.inflight_bytes;
  r.delivered_bytes <- t.acked_bytes;
  r.lost_packets <- t.losses;
  r

(* --- transmission ------------------------------------------------------- *)

let receiver_got t (pkt : Packet.t) =
  t.recv_bytes <- t.recv_bytes + Packet.size pkt;
  match t.source with
  | Finite size when Float.is_nan t.f.completion && t.recv_bytes >= size ->
    t.f.completion <- now_secs t;
    (match t.on_complete with
    | Some f -> (f t [@alloc_ok "opaque completion hook"])
    | None -> ())
  | _ -> ()
[@@alloc_free]

(* The receiver sees a packet after the forward leg, and its ACK lands after
   the reverse leg — unless the ACK-path loss process eats it, in which case
   the sender's dup-ACK / RTO machinery takes over.  A packet of an earlier
   incarnation of the record is dropped here and in {!handle_delivery} and
   {!handle_ack}. *)
let receiver_leg t (pkt : Packet.t) =
  if Packet.flow pkt = t.flow_id then begin
    receiver_got t pkt;
    let ack_dropped =
      match t.ack_loss with
      | Some lost -> (lost () [@alloc_ok "opaque fault hook"])
      | None -> false
    in
    if not ack_dropped then
      Engine.schedule_pkt_in t.engine t.rev_box t.ack_leg pkt
  end
[@@alloc_free]

(* the packet finished serialising at the route's last link *)
let handle_delivery t (pkt : Packet.t) =
  if Packet.flow pkt = t.flow_id then
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
   and a controller that paces never goes back to NaN (the
   {!Cc_types.out} contract), so looking again here would only find a rate
   and leave the pacer as it is. *)
and try_send t =
  if t.active && not t.pacing_scheduled then begin
    if Float.is_nan t.cc.Cc_types.out.pace then
      while window_allows t && data_available t do
        send_next t
      done
    else ensure_pacing t
  end

(* the pacer thunk of the current incarnation *)
and set_pace t =
  let id = t.flow_id in
  t.pace <- (fun () -> if t.flow_id = id then pace_one t);
  t.pace_id <- id

and ensure_pacing t =
  if not t.pacing_scheduled then begin
    if t.pace_id <> t.flow_id then set_pace t;
    t.pacing_scheduled <- true;
    t.f.last_pace_at <- now_secs t;
    pace_one t
  end

(* Credit-based pacing.  A naive "sleep one packet time at the current rate"
   pacer aliases badly when the rate is modulated: at a low base rate the
   inter-packet sleep exceeds an entire pulse lobe, so the waveform is never
   sampled.  Instead accumulate send credit at the instantaneous rate and
   wake at least every 2 ms.  A stopped or finished flow's pacer stops.
   The controller's wake hook sees the instant first, so a rate that moves
   between events (a pulse waveform) is read as of the wake. *)
and pace_one t =
  if (not t.active) || finished t then t.pacing_scheduled <- false
  else begin
    let o = t.cc.Cc_types.out and now = now_secs t in
    o.wake <- now;
    (match t.cc.Cc_types.on_wake with Some f -> f () | None -> ());
    if Float.is_nan o.pace then begin
      t.pacing_scheduled <- false;
      try_send t
    end
    else begin
      let rate = Float.max o.pace 16_000. in
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
      Float.Array.unsafe_set (Engine.key t.engine) 0 interval;
      Engine.schedule_in_key t.engine t.pace
    end
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
      report_loss t ~seq ~bytes:pkt_size `Dupack
    end
    else continue := false
  done

and handle_ack t (pkt : Packet.t) =
  let seq = Packet.seq pkt in
  (* i < 0: a late ACK for a packet already declared lost, or an ACK of
     an earlier incarnation of the record *)
  let i = if Packet.flow pkt = t.flow_id then sb_find t seq else -1 in
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
    (t.cc.Cc_types.on_ack a [@alloc_ok "opaque controller hook"]);
    (try_send t [@alloc_ok "sends on the packet path's own budget"]);
    (* the ACK moved the deadline; by monotonicity, it now falls before the
       armed instant iff the grid instant before that one is due *)
    if rto_due t f.rto_prev then arm_rto t;
    if finished t then release t
  end
[@@alloc_free]

let check_rto t =
  let now = now_secs t in
  if t.inflight_bytes > 0 && rto_due t now then begin
    (* whole window presumed lost *)
    let bytes = t.inflight_bytes in
    sb_drain t.sb_seq t.retx_queue;
    t.losses <- t.losses + t.outstanding;
    t.outstanding <- 0;
    t.inflight_bytes <- 0;
    t.send_order.len <- 0;
    t.f.last_progress <- now;
    report_loss t ~seq:(t.highest_acked + 1) ~bytes `Timeout;
    (try_send t [@alloc_ok "sends on the packet path's own budget"])
  end
[@@alloc_free]

let tick_loop t =
  if t.active && not (finished t) then begin
    Nimbus_trace.Span.enter Nimbus_trace.Span.Flow_tick;
    check_rto t;
    (match t.cc.Cc_types.on_tick with
    | Some f -> f (report t)
    | None -> ());
    try_send t;
    Nimbus_trace.Span.leave Nimbus_trace.Span.Flow_tick;
    Float.Array.unsafe_set (Engine.key t.engine) 0 t.f.tick_interval;
    Engine.schedule_in_key t.engine t.timer
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
      t.f.rto_base <- now;
      arm_rto t
    end;
    Nimbus_trace.Span.leave Nimbus_trace.Span.Flow_tick
  end

(* the timer thunk of incarnation [id] *)
let timer t id =
  if t.flow_id = id then if t.tickless then rto_timer t else tick_loop t

(* the start event: a tickless flow arms its RTO deadline timer, a ticking
   one schedules its first tick *)
let start t =
  try_send t;
  if t.tickless then arm_rto t
  else begin
    Float.Array.unsafe_set (Engine.key t.engine) 0 t.f.tick_interval;
    Engine.schedule_in_key t.engine t.timer
  end

let no_pkt (_ : Packet.t) = ()

(* the controller of a record that has not been given its first flow *)
let no_cc =
  Cc_types.make ~name:"none" ~on_ack:ignore ~on_loss:ignore
    (Cc_types.out ~cwnd:0. ~pace:nan)

(* A record with every handler that serves all its incarnations; {!init}
   sets the rest. *)
let fresh engine =
  let t =
    { engine; clock = Engine.clock engine; enqueue = no_pkt; deliver = no_pkt;
      fwd_leg = no_pkt; ack_leg = no_pkt; start = ignore; timer = ignore;
      pace = ignore; pace_id = -1; fwd_box = Time.zero; rev_box = Time.zero;
      cc = no_cc;
      ack =
        { Cc_types.times =
            { now = Time.zero; rtt = Time.unknown; min_rtt = Time.unknown;
              srtt = Time.unknown };
          seq = 0; bytes = pkt_size; inflight_bytes = 0; delivered_bytes = 0 };
      loss = None; report = None; flow_id = -1; source = Backlogged;
      on_complete = None; on_release = None; tickless = false;
      f =
        { srtt = nan; min_rtt = nan; last_rtt = nan; last_progress = nan;
          send_rate = nan; recv_rate = nan; rto_at = nan; rto_prev = nan;
          rto_base = nan; pace_credit = 0.; last_pace_at = nan;
          fwd_delay = 0.; extra_fwd_delay = 0.; start_time = nan;
          tick_interval = nan; completion = nan };
      next_seq = 0; sb_seq = [||]; sb_sent = Float.Array.create 0;
      sb_retx = [||]; outstanding = 0; send_order = ring ();
      retx_queue = ring (); inflight_bytes = 0; highest_acked = -1;
      supplied_bytes = 0; sent_app_bytes = 0; acked_bytes = 0; recv_bytes = 0;
      losses = 0; acked_sent_at = Float.Array.create 0;
      acked_at = Float.Array.create 0; acked_cum_bytes = [||]; acked_head = 0;
      acked_count = 0; pacing_scheduled = false; active = true;
      ack_loss = None; given_up = false; released = false;
      spare = Engine.No_spare }
  in
  t.deliver <- (fun pkt -> handle_delivery t pkt);
  t.fwd_leg <- (fun pkt -> receiver_leg t pkt);
  t.ack_leg <- (fun pkt -> handle_ack t pkt);
  t.start <- (fun () -> start t);
  t.spare <- Spare t;
  t

(* Every field of an incarnation, the same for a fresh record and a
   recycled one.  A recycled record was released with nothing
   outstanding: its scoreboard is all -1, so it and the ring and rate
   ring buffers are kept at the sizes they grew to (larger buffers change
   no decision: the scoreboard is direct-mapped, and an RTO drains its
   seqs in ascending order whatever the table's size), and only their
   heads and counts restart.  The loss and tick records are refilled
   before every use, so they are kept too. *)
let init t ~flow_id ~enqueue ~cc ~prop_rtt ~source ~start_time ~on_complete
    ~on_release ~tick_interval ~tickless =
  let f = t.f in
  t.flow_id <- flow_id;
  t.enqueue <- enqueue;
  t.timer <-
    (fun () -> timer t flow_id) [@alloc_ok "one timer thunk per incarnation"];
  if tickless then begin
    t.pace <- ignore;
    t.pace_id <- -1
  end
  else (set_pace t [@alloc_ok "one pacer thunk per ticking incarnation"]);
  f.fwd_delay <- prop_rtt *. fwd_frac;
  f.extra_fwd_delay <- 0.;
  t.fwd_box <- fwd_box ~fwd_delay:f.fwd_delay ~extra:0.;
  t.rev_box <- Time.secs (prop_rtt *. (1. -. fwd_frac));
  t.cc <- cc;
  let a = t.ack in
  a.times.now <- Time.zero;
  a.times.rtt <- Time.unknown;
  a.times.min_rtt <- Time.unknown;
  a.times.srtt <- Time.unknown;
  a.seq <- 0;
  a.inflight_bytes <- 0;
  a.delivered_bytes <- 0;
  t.source <- source;
  t.on_complete <- on_complete;
  t.on_release <- on_release;
  t.tickless <- tickless;
  f.start_time <- start_time;
  f.tick_interval <- tick_interval;
  f.srtt <- nan;
  f.min_rtt <- nan;
  f.last_rtt <- nan;
  f.last_progress <- start_time;
  f.send_rate <- nan;
  f.recv_rate <- nan;
  f.rto_at <- start_time;
  f.rto_prev <- (if tickless then start_time else nan);
  f.rto_base <- start_time;
  f.pace_credit <- 0.;
  f.last_pace_at <- start_time;
  f.completion <- nan;
  t.next_seq <- 0;
  t.outstanding <- 0;
  t.send_order.head <- 0;
  t.send_order.len <- 0;
  t.retx_queue.head <- 0;
  t.retx_queue.len <- 0;
  t.inflight_bytes <- 0;
  t.highest_acked <- -1;
  t.supplied_bytes <- 0;
  t.sent_app_bytes <- 0;
  t.acked_bytes <- 0;
  t.recv_bytes <- 0;
  t.losses <- 0;
  t.acked_head <- 0;
  t.acked_count <- 0;
  t.pacing_scheduled <- false;
  t.active <- true;
  t.ack_loss <- None;
  t.given_up <- false;
  t.released <- false
[@@alloc_free]

let create_via topo ~route ~cc ~prop_rtt ?(source = Backlogged) ?start
    ?on_complete ?on_release ?(tick_interval = default_tick_interval) () =
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
    | None -> Float.Array.get (Engine.clock engine) 0
  in
  let tickless =
    Option.is_none cc.Cc_types.on_tick
    && Float.is_nan cc.Cc_types.out.pace
    && (match source with App_limited -> false | Backlogged | Finite _ -> true)
  in
  let t =
    match Engine.take_spare engine with Spare t -> t | _ -> fresh engine
  in
  let enqueue = Topology.attach topo ~route ~flow:flow_id ~sink:t.deliver in
  init t ~flow_id ~enqueue ~cc ~prop_rtt ~source ~start_time ~on_complete
    ~on_release ~tick_interval ~tickless;
  Float.Array.unsafe_set (Engine.key engine) 0 start_time;
  Engine.schedule_at_key engine t.start;
  t
