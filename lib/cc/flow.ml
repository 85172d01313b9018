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

(* Sender bookkeeping stays raw float (seconds / bps / bytes) — the typed
   boundary is the .mli and the Cc_types records built below. *)
type sent_info = {
  si_sent_at : float;
  si_size : int;
  si_retx : bool;
}

(* Ring of acknowledged packets, for the Eq. 2 rate estimators. *)
type acked_record = {
  ar_sent_at : float;
  ar_acked_at : float;
  ar_cum_bytes : int; (* running total including this record *)
}

let reorder_window = 3

let rate_ring_capacity = 2048

type t = {
  engine : Engine.t;
  (* the route's topology ingress.  Mutable only because attaching needs
     the flow's own sink closure ([t] itself) — it is set once in
     [create_via] and never changes afterwards. *)
  mutable enqueue : Packet.t -> unit;
  cc : Cc_types.t;
  flow_id : int;
  fwd_delay : float;
  rev_delay : float;
  pkt_size : int;
  source : source;
  on_complete : (t -> unit) option;
  tick_interval : float;
  start_time : float;
  (* sender state *)
  mutable next_seq : int;
  outstanding : (int, sent_info) Hashtbl.t;
  send_order : int Queue.t; (* seqs in transmission order; may hold acked *)
  retx_queue : int Queue.t;
  mutable inflight_bytes : int;
  mutable highest_acked : int;
  mutable supplied_bytes : int; (* App_limited budget *)
  mutable sent_app_bytes : int; (* consumed from budget / finite size *)
  mutable acked_bytes : int;
  mutable recv_bytes : int;
  mutable losses : int;
  mutable srtt : float;
  mutable min_rtt : float;
  mutable last_rtt : float;
  mutable last_progress : float;
  acked_ring : acked_record array;
  mutable acked_head : int;
  mutable acked_count : int;
  mutable send_rate : float;
  mutable recv_rate : float;
  mutable pacing_scheduled : bool;
  mutable pace_credit : float; (* bytes the pacer may send right now *)
  mutable last_pace_at : float;
  mutable active : bool;
  mutable completion_time : float option;
  (* fault hooks: extra one-way propagation delay (link delay steps/jitter)
     and a reverse-path loss process (ACK loss) *)
  mutable extra_fwd_delay : float;
  mutable ack_loss : (unit -> bool) option;
}

let now_secs t = Time.to_secs (Engine.now t.engine)
[@@unit_ok "raw-seconds view feeding float trace sinks and hot mutable fields"]

let id t = t.flow_id

let stopped t = not t.active

let received_bytes t = t.recv_bytes

let acked_bytes t = t.acked_bytes

let lost_packets t = t.losses

let inflight_bytes t = t.inflight_bytes

let srtt t = Time.secs t.srtt

let min_rtt t = Time.secs t.min_rtt

let last_rtt t = Time.secs t.last_rtt

let send_rate t = Rate.bps t.send_rate

let recv_rate t = Rate.bps t.recv_rate

let completion_time t = Option.map Time.secs t.completion_time

let start_time t = Time.secs t.start_time

let cc_name t = t.cc.Cc_types.name

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
    t.extra_fwd_delay <- extra;
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

let extra_delay t = Time.secs t.extra_fwd_delay

(* --- data availability -------------------------------------------------- *)

let new_data_available t =
  match t.source with
  | Backlogged -> true
  | Finite size -> t.sent_app_bytes < size
  | App_limited -> t.sent_app_bytes + t.pkt_size <= t.supplied_bytes

let data_available t = (not (Queue.is_empty t.retx_queue)) || new_data_available t

let window_allows t =
  float_of_int (t.inflight_bytes + t.pkt_size)
  <= B.to_float (t.cc.Cc_types.cwnd ())

(* --- rate estimation (Eq. 2) -------------------------------------------- *)

let push_acked t rec_ =
  t.acked_ring.(t.acked_head) <- rec_;
  t.acked_head <- (t.acked_head + 1) mod rate_ring_capacity;
  if t.acked_count < rate_ring_capacity then t.acked_count <- t.acked_count + 1

let nth_acked_from_end t k =
  (* k = 0 is the newest record *)
  t.acked_ring.(((t.acked_head - 1 - k) mod rate_ring_capacity
                 + rate_ring_capacity) mod rate_ring_capacity)

(* Number of packets forming "one window" for the S/R measurement: the data
   actually in flight, i.e. one RTT's worth of packets at the current rate.
   (Using the controller's window *limit* would smear the estimate over many
   RTTs whenever the limit far exceeds actual usage.) *)
let measurement_window t =
  let n = t.inflight_bytes / t.pkt_size in
  max 8 (min n (rate_ring_capacity - 1))

let update_rates t =
  let n = measurement_window t in
  if t.acked_count >= n + 1 then begin
    let newest = nth_acked_from_end t 0 in
    let oldest = nth_acked_from_end t n in
    let nbytes = newest.ar_cum_bytes - oldest.ar_cum_bytes in
    let send_dt = newest.ar_sent_at -. oldest.ar_sent_at in
    let recv_dt = newest.ar_acked_at -. oldest.ar_acked_at in
    if send_dt > 0. then t.send_rate <- float_of_int (nbytes * 8) /. send_dt;
    if recv_dt > 0. then t.recv_rate <- float_of_int (nbytes * 8) /. recv_dt
  end

(* --- transmission ------------------------------------------------------- *)

let receiver_got t (pkt : Packet.t) =
  t.recv_bytes <- t.recv_bytes + pkt.size;
  match t.source with
  | Finite size when t.completion_time = None && t.recv_bytes >= size ->
    t.completion_time <- Some (now_secs t);
    (match t.on_complete with Some f -> f t | None -> ())
  | _ -> ()

let rec handle_delivery t (pkt : Packet.t) =
  (* packet finished serialising at the bottleneck; receiver sees it after
     the forward leg (plus any injected delay step/jitter), and the ACK lands
     after the reverse leg — unless the ACK-path loss process eats it, in
     which case the sender's dup-ACK / RTO machinery takes over *)
  let fwd = Float.max 0. (t.fwd_delay +. t.extra_fwd_delay) in
  Engine.schedule_in t.engine (Time.secs fwd) (fun () ->
      receiver_got t pkt;
      let ack_dropped =
        match t.ack_loss with Some lost -> lost () | None -> false
      in
      if not ack_dropped then
        Engine.schedule_in t.engine (Time.secs t.rev_delay) (fun () ->
            handle_ack t pkt))

and send_packet t ~seq ~retransmission =
  let now = Engine.now t.engine in
  let pkt =
    Packet.make ~flow:t.flow_id ~seq ~size:t.pkt_size ~now ~retransmission ()
  in
  Hashtbl.replace t.outstanding seq
    { si_sent_at = Time.to_secs now; si_size = t.pkt_size;
      si_retx = retransmission };
  Queue.push seq t.send_order;
  t.inflight_bytes <- t.inflight_bytes + t.pkt_size;
  t.enqueue pkt

and send_next t =
  match Queue.take_opt t.retx_queue with
  | Some seq -> send_packet t ~seq ~retransmission:true
  | None ->
    let seq = t.next_seq in
    t.next_seq <- t.next_seq + 1;
    t.sent_app_bytes <- t.sent_app_bytes + t.pkt_size;
    send_packet t ~seq ~retransmission:false

and try_send t =
  if t.active then begin
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
    t.last_pace_at <- now_secs t;
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
      let dt = now -. t.last_pace_at in
      t.last_pace_at <- now;
      let burst_cap = float_of_int (2 * t.pkt_size) in
      t.pace_credit <-
        Float.min burst_cap (t.pace_credit +. (rate *. dt /. 8.));
      let pkt = float_of_int t.pkt_size in
      while
        t.pace_credit >= pkt && window_allows t && data_available t
      do
        send_next t;
        t.pace_credit <- t.pace_credit -. pkt
      done;
      let interval =
        Float.max 0.0002 (Float.min 0.002 (pkt *. 8. /. rate))
      in
      Engine.schedule_in t.engine (Time.secs interval) (fun () -> pace_one t)
  end

(* --- acknowledgements and loss detection -------------------------------- *)

and declare_front_losses t =
  (* pop acked entries and declare stragglers behind the reordering window *)
  let continue = ref true in
  while !continue do
    match Queue.peek_opt t.send_order with
    | None -> continue := false
    | Some seq ->
      if not (Hashtbl.mem t.outstanding seq) then ignore (Queue.pop t.send_order)
      else if seq <= t.highest_acked - reorder_window then begin
        ignore (Queue.pop t.send_order);
        let info = Hashtbl.find t.outstanding seq in
        Hashtbl.remove t.outstanding seq;
        t.inflight_bytes <- t.inflight_bytes - info.si_size;
        t.losses <- t.losses + 1;
        Queue.push seq t.retx_queue;
        t.cc.Cc_types.on_loss
          { Cc_types.now = Engine.now t.engine; seq; bytes = info.si_size;
            inflight_bytes = t.inflight_bytes; kind = `Dupack }
      end
      else continue := false
  done

and handle_ack t (pkt : Packet.t) =
  match Hashtbl.find_opt t.outstanding pkt.seq with
  | None -> () (* late ACK for a packet already declared lost *)
  | Some info ->
    let now = now_secs t in
    Hashtbl.remove t.outstanding pkt.seq;
    t.inflight_bytes <- t.inflight_bytes - info.si_size;
    t.acked_bytes <- t.acked_bytes + info.si_size;
    t.last_progress <- now;
    (* Karn's algorithm: a retransmitted sequence number gives an ambiguous
       RTT sample (the ACK may be for the original transmission), so skip
       RTT and rate accounting for it *)
    if not info.si_retx then begin
      let rtt = now -. info.si_sent_at in
      t.last_rtt <- rtt;
      if Float.is_nan t.min_rtt || rtt < t.min_rtt then t.min_rtt <- rtt;
      t.srtt <-
        (if Float.is_nan t.srtt then rtt
         else (0.875 *. t.srtt) +. (0.125 *. rtt));
      let prev_cum =
        if t.acked_count = 0 then 0 else (nth_acked_from_end t 0).ar_cum_bytes
      in
      push_acked t
        { ar_sent_at = info.si_sent_at; ar_acked_at = now;
          ar_cum_bytes = prev_cum + info.si_size };
      update_rates t
    end;
    if pkt.seq > t.highest_acked then t.highest_acked <- pkt.seq;
    declare_front_losses t;
    t.cc.Cc_types.on_ack
      { Cc_types.now = Time.secs now; seq = pkt.seq; bytes = info.si_size;
        rtt = Time.secs t.last_rtt; min_rtt = Time.secs t.min_rtt;
        srtt = Time.secs t.srtt; inflight_bytes = t.inflight_bytes;
        delivered_bytes = t.acked_bytes };
    try_send t

(* --- retransmission timeout --------------------------------------------- *)

let rto t =
  if Float.is_nan t.srtt then 1.0 else Float.max 0.4 (3.0 *. t.srtt)

let check_rto t =
  let now = now_secs t in
  if t.inflight_bytes > 0 && now -. t.last_progress > rto t then begin
    (* whole window presumed lost *)
    let lost = Hashtbl.fold (fun seq _ acc -> seq :: acc) t.outstanding [] in
    let lost = List.sort Int.compare lost in
    let bytes = t.inflight_bytes in
    List.iter
      (fun seq ->
        Hashtbl.remove t.outstanding seq;
        t.losses <- t.losses + 1;
        Queue.push seq t.retx_queue)
      lost;
    t.inflight_bytes <- 0;
    Queue.clear t.send_order;
    t.last_progress <- now;
    t.cc.Cc_types.on_loss
      { Cc_types.now = Time.secs now; seq = t.highest_acked + 1; bytes;
        inflight_bytes = 0; kind = `Timeout };
    try_send t
  end

(* a completed [Finite] transfer with nothing in flight and nothing to
   resend has no RTO to check and nothing to send: its tick would reschedule
   itself until the run ends *)
let finished t =
  Option.is_some t.completion_time
  && Hashtbl.length t.outstanding = 0
  && not (data_available t)

let rec tick_loop t =
  if t.active && not (finished t) then begin
    Nimbus_trace.Span.enter Nimbus_trace.Span.Flow_tick;
    check_rto t;
    (match t.cc.Cc_types.on_tick with
    | Some f ->
      f
        { Cc_types.now = Engine.now t.engine;
          send_rate = Rate.bps t.send_rate;
          recv_rate = Rate.bps t.recv_rate; rtt = Time.secs t.last_rtt;
          srtt = Time.secs t.srtt; min_rtt = Time.secs t.min_rtt;
          inflight_bytes = t.inflight_bytes;
          delivered_bytes = t.acked_bytes; lost_packets = t.losses }
    | None -> ());
    try_send t;
    Nimbus_trace.Span.leave Nimbus_trace.Span.Flow_tick;
    Engine.schedule_in t.engine (Time.secs t.tick_interval) (fun () ->
        tick_loop t)
  end

let create_via topo ~route ~cc ~prop_rtt ?(fwd_frac = 0.5)
    ?(pkt_size = Packet.default_data_size) ?(source = Backlogged) ?start
    ?on_complete ?(tick_interval = Time.ms 10.) () =
  let engine = Topology.engine topo in
  let prop_rtt = Time.to_secs prop_rtt in
  let tick_interval = Time.to_secs tick_interval in
  if not (Float.is_finite prop_rtt) || prop_rtt < 0. then
    invalid_arg "Flow.create_via: prop_rtt must be finite and >= 0";
  let flow_id = Engine.fresh_flow_id engine in
  let start_time =
    match start with
    | Some s -> Time.to_secs s
    | None -> Time.to_secs (Engine.now engine)
  in
  let t =
    { engine; enqueue = ignore; cc; flow_id;
      fwd_delay = prop_rtt *. fwd_frac;
      rev_delay = prop_rtt *. (1. -. fwd_frac);
      pkt_size; source; on_complete; tick_interval; start_time;
      next_seq = 0; outstanding = Hashtbl.create 64;
      send_order = Queue.create (); retx_queue = Queue.create ();
      inflight_bytes = 0; highest_acked = -1; supplied_bytes = 0;
      sent_app_bytes = 0; acked_bytes = 0; recv_bytes = 0; losses = 0;
      srtt = nan; min_rtt = nan; last_rtt = nan; last_progress = start_time;
      acked_ring =
        Array.make rate_ring_capacity
          { ar_sent_at = 0.; ar_acked_at = 0.; ar_cum_bytes = 0 };
      acked_head = 0; acked_count = 0; send_rate = nan; recv_rate = nan;
      pacing_scheduled = false; pace_credit = 0.; last_pace_at = start_time;
      active = true;
      completion_time = None; extra_fwd_delay = 0.; ack_loss = None }
  in
  t.enqueue <-
    Topology.attach topo ~route ~flow:flow_id ~sink:(fun pkt ->
        handle_delivery t pkt);
  Engine.schedule_at engine (Time.secs start_time) (fun () ->
      try_send t;
      Engine.schedule_in engine (Time.secs tick_interval) (fun () ->
          tick_loop t));
  t
