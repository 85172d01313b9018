module Engine = Nimbus_sim.Engine
module Bottleneck = Nimbus_sim.Bottleneck
module Rng = Nimbus_sim.Rng
module Flow = Nimbus_cc.Flow
module Time = Units.Time
module Rate = Units.Rate

type event =
  | Burst_loss of {
      at : Time.t;
      p_enter : float;
      p_exit : float;
      loss_good : float;
      loss_bad : float;
    }
  | Loss_off of Time.t
  | Rate_step of {
      at : Time.t;
      rate : Rate.t;
    }
  | Outage of {
      at : Time.t;
      duration : Time.t;
    }
  | Delay_step of {
      at : Time.t;
      extra : Time.t;
    }
  | Delay_jitter of {
      at : Time.t;
      until : Time.t;
      amp : Time.t;
      period : Time.t;
    }
  | Ack_loss of {
      at : Time.t;
      p : float;
    }
  | Ack_loss_off of Time.t
  | Kill_flow of {
      at : Time.t;
      index : int;
    }

type plan = event list

let event_time = function
  | Burst_loss { at; _ }
  | Rate_step { at; _ }
  | Outage { at; _ }
  | Delay_step { at; _ }
  | Delay_jitter { at; _ }
  | Ack_loss { at; _ }
  | Kill_flow { at; _ }
  | Loss_off at
  | Ack_loss_off at ->
    at

(* the shortest of 15 or 17 significant digits that reads back as [x], so
   that a printed plan parses to the same numbers *)
let num x =
  let s = Printf.sprintf "%.15g" x in
  if Float.equal (float_of_string s) x then s else Printf.sprintf "%.17g" x

let to_string plan =
  let f = Printf.sprintf and secs t = num (Time.to_secs t) in
  let ms t = num (Time.to_ms t) in
  let clause = function
    | Burst_loss { at; p_enter; p_exit; loss_good; loss_bad } ->
      f "burst@%s:%s/%s/%s/%s" (secs at) (num p_enter) (num p_exit)
        (num loss_good) (num loss_bad)
    | Loss_off at -> f "lossoff@%s" (secs at)
    | Rate_step { at; rate } ->
      f "step@%s:%s" (secs at) (num (Rate.to_mbps rate))
    | Outage { at; duration } -> f "flap@%s:%s" (secs at) (secs duration)
    | Delay_step { at; extra } -> f "delay@%s:%s" (secs at) (ms extra)
    | Delay_jitter { at; until; amp; period } ->
      f "jitter@%s-%s:%s/%s" (secs at) (secs until) (ms amp) (ms period)
    | Ack_loss { at; p } -> f "acks@%s:%s" (secs at) (num p)
    | Ack_loss_off at -> f "acksoff@%s" (secs at)
    | Kill_flow { at; index } -> f "kill@%s:%d" (secs at) index
  in
  String.concat ";" (List.map clause plan)

(* --- spec parsing --------------------------------------------------------- *)

let ( let* ) = Result.bind

let float_param clause s =
  match float_of_string_opt (String.trim s) with
  | Some v when Float.is_finite v -> Ok v
  | _ -> Error (Printf.sprintf "fault clause %S: bad number %S" clause s)

let prob_param clause s =
  let* p = float_param clause s in
  if p < 0. || p > 1. then
    Error (Printf.sprintf "fault clause %S: probability %g not in [0,1]" clause p)
  else Ok p

let nonneg_param clause s =
  let* v = float_param clause s in
  if v < 0. then Error (Printf.sprintf "fault clause %S: negative value" clause)
  else Ok v

(* [T] or [T0-T1]: the first '-' that is not a leading sign or an
   exponent's sign ends [T0] *)
let split_span s =
  let n = String.length s in
  let rec find i =
    if i >= n then None
    else if s.[i] = '-' && i > 0 && s.[i - 1] <> 'e' && s.[i - 1] <> 'E' then
      Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> (s, None)
  | Some i -> (String.sub s 0 i, Some (String.sub s (i + 1) (n - i - 1)))

let parse_clause clause =
  let clause = String.trim clause in
  let* kind, rest =
    match String.index_opt clause '@' with
    | Some i ->
      Ok
        ( String.sub clause 0 i,
          String.sub clause (i + 1) (String.length clause - i - 1) )
    | None -> Error (Printf.sprintf "fault clause %S: missing '@TIME'" clause)
  in
  let time_part, params =
    match String.index_opt rest ':' with
    | Some i ->
      ( String.sub rest 0 i,
        String.split_on_char '/'
          (String.sub rest (i + 1) (String.length rest - i - 1)) )
    | None -> (rest, [])
  in
  let lo, hi = split_span time_part in
  let* at = nonneg_param clause lo in
  (* only [jitter] takes a span; every other kind is one instant *)
  let span () =
    match hi with
    | Some hi ->
      let* hi = nonneg_param clause hi in
      if hi <= at then
        Error (Printf.sprintf "fault clause %S: empty time span" clause)
      else Ok hi
    | None -> Error (Printf.sprintf "fault clause %S: expected TIME-TIME" clause)
  in
  let count n =
    if List.length params = n then Ok ()
    else
      Error
        (Printf.sprintf "fault clause %S: expected %d parameter(s)" clause n)
  in
  let instant () =
    match hi with
    | None -> Ok ()
    | Some _ ->
      Error
        (Printf.sprintf "fault clause %S: %s takes one instant, not a span"
           clause kind)
  in
  let arity n =
    let* () = instant () in
    count n
  in
  match kind with
  | "burst" ->
    let* () = instant () in
    let* probs =
      match params with
      | [ pe; px; lb ] -> Ok (pe, px, "0", lb)
      | [ pe; px; lg; lb ] -> Ok (pe, px, lg, lb)
      | _ ->
        Error
          (Printf.sprintf
             "fault clause %S: burst wants PENTER/PEXIT[/LGOOD]/LBAD" clause)
    in
    let pe, px, lg, lb = probs in
    let* p_enter = prob_param clause pe in
    let* p_exit = prob_param clause px in
    let* loss_good = prob_param clause lg in
    let* loss_bad = prob_param clause lb in
    Ok
      (Burst_loss
         { at = Time.secs at; p_enter; p_exit; loss_good; loss_bad })
  | "lossoff" ->
    let* () = arity 0 in
    Ok (Loss_off (Time.secs at))
  | "step" ->
    let* () = arity 1 in
    let* mbps = nonneg_param clause (List.nth params 0) in
    Ok (Rate_step { at = Time.secs at; rate = Rate.mbps mbps })
  | "flap" ->
    let* () = arity 1 in
    let* dur = nonneg_param clause (List.nth params 0) in
    Ok (Outage { at = Time.secs at; duration = Time.secs dur })
  | "delay" ->
    let* () = arity 1 in
    let* ms = float_param clause (List.nth params 0) in
    Ok (Delay_step { at = Time.secs at; extra = Time.ms ms })
  | "jitter" ->
    let* until = span () in
    let* () = count 2 in
    let* amp_ms = nonneg_param clause (List.nth params 0) in
    let* period_ms = nonneg_param clause (List.nth params 1) in
    if period_ms <= 0. then
      Error (Printf.sprintf "fault clause %S: period must be > 0" clause)
    else
      Ok
        (Delay_jitter
           { at = Time.secs at; until = Time.secs until; amp = Time.ms amp_ms;
             period = Time.ms period_ms })
  | "acks" ->
    let* () = arity 1 in
    let* p = prob_param clause (List.nth params 0) in
    Ok (Ack_loss { at = Time.secs at; p })
  | "acksoff" ->
    let* () = arity 0 in
    Ok (Ack_loss_off (Time.secs at))
  | "kill" ->
    let* () = arity 1 in
    (match int_of_string_opt (String.trim (List.nth params 0)) with
     | Some index when index >= 0 -> Ok (Kill_flow { at = Time.secs at; index })
     | _ ->
       Error
         (Printf.sprintf "fault clause %S: flow index must be a natural" clause))
  | other ->
    Error
      (Printf.sprintf
         "fault clause %S: unknown kind %S \
          (burst|lossoff|step|flap|delay|jitter|acks|acksoff|kill)"
         clause other)

let parse spec =
  let clauses =
    String.split_on_char ';' spec
    |> List.concat_map (String.split_on_char ',')
    |> List.filter (fun c -> not (String.equal (String.trim c) ""))
  in
  if clauses = [] then Error "empty fault spec"
  else begin
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | c :: rest ->
        let* ev = parse_clause c in
        go (ev :: acc) rest
    in
    go [] clauses
  end

(* --- attachment ------------------------------------------------------------ *)

module Trace = Nimbus_trace.Trace
module Tev = Nimbus_trace.Event

let iter_flows flows f = Array.iter f flows

(* every firing is recorded (at fire time, not attach time) through the
   engine's collector, so a traced run shows exactly which injected event
   preceded a detector reaction *)
let fire engine fault ~p1 ~p2 =
  let tr = Engine.trace engine in
  if Trace.want tr Tev.Fault then
    Trace.fault_fired tr
      ~now:(Time.to_secs (Engine.now engine))
      ~fault ~p1 ~p2

let attach ~engine ~bottleneck ?(flows = [||]) ~rng plan =
  List.iter
    (fun ev ->
      let at = event_time ev in
      if not (Time.is_finite at) then
        invalid_arg "Fault.attach: non-finite event time";
      match ev with
      | Kill_flow { index; _ } when index >= Array.length flows ->
        invalid_arg
          (Printf.sprintf "Fault.attach: kill targets flow %d but only %d \
                           flow(s) attached"
             index (Array.length flows))
      | _ -> ())
    plan;
  (* randomness is split off per event at attach time, in plan order, so a
     plan is deterministic for a given rng regardless of event timing *)
  List.iter
    (fun ev ->
      match ev with
      | Burst_loss { at; p_enter; p_exit; loss_good; loss_bad } ->
        let ge_rng = Rng.split rng in
        Engine.schedule_at engine at (fun () ->
            fire engine Tev.F_burst ~p1:p_enter ~p2:loss_bad;
            let ge =
              Gilbert_elliott.create ~rng:ge_rng ~p_enter ~p_exit ~loss_good
                ~loss_bad ()
            in
            Bottleneck.set_loss_model bottleneck
              (Some (fun _pkt -> Gilbert_elliott.drop ge)))
      | Loss_off at ->
        Engine.schedule_at engine at (fun () ->
            fire engine Tev.F_loss_off ~p1:0. ~p2:0.;
            Bottleneck.set_loss_model bottleneck None)
      | Rate_step { at; rate } ->
        Engine.schedule_at engine at (fun () ->
            fire engine Tev.F_rate_step ~p1:(Rate.to_mbps rate) ~p2:0.;
            Bottleneck.set_rate bottleneck rate)
      | Outage { at; duration } ->
        Engine.schedule_at engine at (fun () ->
            fire engine Tev.F_outage ~p1:(Time.to_secs duration) ~p2:0.;
            let restore = Bottleneck.rate bottleneck in
            Bottleneck.set_rate bottleneck Rate.zero;
            Engine.schedule_in engine duration (fun () ->
                Bottleneck.set_rate bottleneck restore))
      | Delay_step { at; extra } ->
        Engine.schedule_at engine at (fun () ->
            fire engine Tev.F_delay_step ~p1:(Time.to_secs extra) ~p2:0.;
            iter_flows flows (fun fl ->
                Flow.apply fl (Flow.Control.Extra_delay extra)))
      | Delay_jitter { at; until; amp; period } ->
        let jrng = Rng.split rng in
        Engine.every engine ~dt:period ~start:at ~until (fun () ->
            fire engine Tev.F_jitter ~p1:(Time.to_secs amp)
              ~p2:(Time.to_secs period);
            iter_flows flows (fun fl ->
                Flow.apply fl
                  (Flow.Control.Extra_delay
                     (Time.secs (Rng.float jrng (Time.to_secs amp))))));
        Engine.schedule_at engine until (fun () ->
            iter_flows flows (fun fl ->
                Flow.apply fl (Flow.Control.Extra_delay Time.zero)))
      | Ack_loss { at; p } ->
        let arng = Rng.split rng in
        Engine.schedule_at engine at (fun () ->
            fire engine Tev.F_ack_loss ~p1:p ~p2:0.;
            iter_flows flows (fun fl ->
                Flow.apply fl
                  (Flow.Control.Ack_loss (Some (fun () -> Rng.bool arng ~p)))))
      | Ack_loss_off at ->
        Engine.schedule_at engine at (fun () ->
            fire engine Tev.F_ack_off ~p1:0. ~p2:0.;
            iter_flows flows (fun fl ->
                Flow.apply fl (Flow.Control.Ack_loss None)))
      | Kill_flow { at; index } ->
        Engine.schedule_at engine at (fun () ->
            fire engine Tev.F_kill ~p1:(float_of_int index) ~p2:0.;
            Flow.apply flows.(index) Flow.Control.Stop))
    plan
