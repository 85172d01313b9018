module Engine = Nimbus_sim.Engine
module Bottleneck = Nimbus_sim.Bottleneck
module Nimbus = Nimbus_core.Nimbus
module Time = Units.Time
module Rate = Units.Rate

type rule =
  | Conservation
  | Queue_nonneg
  | Finite_signal
  | Mode_hysteresis
  | Custom of string

let rule_to_string = function
  | Conservation -> "packet-conservation"
  | Queue_nonneg -> "queue-nonneg"
  | Finite_signal -> "finite-signal"
  | Mode_hysteresis -> "mode-hysteresis"
  | Custom name -> name

let rule_code = function
  | Conservation -> 0
  | Queue_nonneg -> 1
  | Finite_signal -> 2
  | Mode_hysteresis -> 3
  | Custom _ -> 4

type violation = {
  v_time : Time.t;
  v_rule : rule;
  v_detail : string;
}

(* per-controller mode history for the hysteresis check *)
type watch = {
  w_label : string;
  w_nimbus : Nimbus.t;
  mutable w_mode : Nimbus.mode;
  mutable w_last_switch : float; (* seconds; -inf before any switch *)
}

let max_recorded = 1000

type t = {
  engine : Engine.t;
  (* audited links as (label, bottleneck), one per topology link *)
  bottlenecks : (string * Bottleneck.t) list;
  watches : watch list;
  min_dwell : float;
  mutable recorded : violation list; (* newest first, capped *)
  mutable total : int;
  mutable checks : (string * (unit -> string option)) list;
}

let record t rule detail =
  t.total <- t.total + 1;
  (let tr = Engine.trace t.engine in
   if Nimbus_trace.Trace.want tr Nimbus_trace.Event.Invariant then
     Nimbus_trace.Trace.violation tr
       ~now:(Time.to_secs (Engine.now t.engine))
       ~rule:(rule_code rule));
  if t.total <= max_recorded then
    t.recorded <-
      { v_time = Engine.now t.engine; v_rule = rule; v_detail = detail }
      :: t.recorded

let check_bottleneck t (label, bn) =
  let offered = Bottleneck.offered_packets bn in
  let delivered = Bottleneck.delivered_packets bn in
  let queued = Bottleneck.queued_packets bn in
  let drops = Bottleneck.drops bn in
  if offered <> delivered + drops + queued then
    record t Conservation
      (Printf.sprintf "%s: offered %d <> delivered %d + drops %d + queued %d"
         label offered delivered drops queued);
  if queued < 0 || Bottleneck.qlen_bytes bn < 0 then
    record t Queue_nonneg
      (Printf.sprintf "%s: queued %d pkts / %d bytes" label queued
         (Bottleneck.qlen_bytes bn))

let finite_or_unknown x = Float.is_finite x || Float.is_nan x

let check_watch t w =
  let eta = Nimbus.last_eta w.w_nimbus in
  let z = Rate.to_bps (Nimbus.last_z w.w_nimbus) in
  if not (finite_or_unknown eta) then
    record t Finite_signal (Printf.sprintf "%s: eta = %h" w.w_label eta);
  if not (finite_or_unknown z) then
    record t Finite_signal (Printf.sprintf "%s: z = %h" w.w_label z);
  let mode = Nimbus.mode w.w_nimbus in
  if mode <> w.w_mode then begin
    let now = Time.to_secs (Engine.now t.engine) in
    if now -. w.w_last_switch < t.min_dwell then
      record t Mode_hysteresis
        (Printf.sprintf "%s: %s -> %s only %.3f s after the previous switch"
           w.w_label
           (Nimbus.mode_to_string w.w_mode)
           (Nimbus.mode_to_string mode)
           (now -. w.w_last_switch));
    w.w_mode <- mode;
    w.w_last_switch <- now
  end

let tick t () =
  List.iter (check_bottleneck t) t.bottlenecks;
  List.iter (check_watch t) t.watches;
  List.iter
    (fun (name, check) ->
      match check () with
      | Some detail -> record t (Custom name) detail
      | None -> ())
    t.checks

let create engine ?(bottlenecks = []) ?(nimbus = [])
    ?(min_dwell = Time.ms 250.) ?(interval = Time.ms 10.) ?until () =
  let watches =
    List.map
      (fun (label, nim) ->
        { w_label = label; w_nimbus = nim; w_mode = Nimbus.mode nim;
          w_last_switch = neg_infinity })
      nimbus
  in
  let t =
    { engine; bottlenecks; watches; min_dwell = Time.to_secs min_dwell;
      recorded = []; total = 0; checks = [] }
  in
  Engine.every engine ~dt:interval ?until (tick t);
  t

let add_check t ~name check = t.checks <- t.checks @ [ (name, check) ]

let violations t = List.rev t.recorded

let count t = t.total

let ok t = t.total = 0

let report t =
  if t.total = 0 then "invariants: ok (0 violations)"
  else begin
    let b = Buffer.create 256 in
    Buffer.add_string b
      (Printf.sprintf "invariants: %d violation(s)%s\n" t.total
         (if t.total > max_recorded then
            Printf.sprintf " (first %d recorded)" max_recorded
          else ""));
    List.iter
      (fun v ->
        Buffer.add_string b
          (Printf.sprintf "  [%8.3f s] %-20s %s\n"
             (Time.to_secs v.v_time)
             (rule_to_string v.v_rule)
             v.v_detail))
      (violations t);
    Buffer.contents b
  end
