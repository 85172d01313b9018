type cat =
  | Engine
  | Packet
  | Bottleneck
  | Fault
  | Flow
  | Detector
  | Spectrum
  | Pulse
  | Mode
  | Election
  | Invariant

let cats =
  [
    Engine;
    Packet;
    Bottleneck;
    Fault;
    Flow;
    Detector;
    Spectrum;
    Pulse;
    Mode;
    Election;
    Invariant;
  ]

let cat_index = function
  | Engine -> 0
  | Packet -> 1
  | Bottleneck -> 2
  | Fault -> 3
  | Flow -> 4
  | Detector -> 5
  | Spectrum -> 6
  | Pulse -> 7
  | Mode -> 8
  | Election -> 9
  | Invariant -> 10

let cat_bit c = 1 lsl cat_index c

let cat_to_string = function
  | Engine -> "engine"
  | Packet -> "packet"
  | Bottleneck -> "bottleneck"
  | Fault -> "fault"
  | Flow -> "flow"
  | Detector -> "detector"
  | Spectrum -> "spectrum"
  | Pulse -> "pulse"
  | Mode -> "mode"
  | Election -> "election"
  | Invariant -> "invariant"

let cat_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "engine" -> Some Engine
  | "packet" -> Some Packet
  | "bottleneck" -> Some Bottleneck
  | "fault" -> Some Fault
  | "flow" -> Some Flow
  | "detector" -> Some Detector
  | "spectrum" -> Some Spectrum
  | "pulse" -> Some Pulse
  | "mode" -> Some Mode
  | "election" -> Some Election
  | "invariant" -> Some Invariant
  | _ -> None

(* --- enumerations ---------------------------------------------------------- *)

type mode =
  | Delay
  | Competitive

type role =
  | Pulser
  | Watcher

type evidence =
  | Eta
  | Heard_delay
  | Heard_competitive
  | Quiet
  | Lost
  | Won

type drop_reason =
  | Queue_full
  | Policer
  | Random_loss
  | Modeled_loss

type fault_kind =
  | F_burst
  | F_loss_off
  | F_rate_step
  | F_outage
  | F_delay_step
  | F_jitter
  | F_ack_loss
  | F_ack_off
  | F_kill

type control_kind =
  | C_extra_delay
  | C_ack_loss
  | C_ack_off
  | C_stop

let mode_code = function Delay -> 0 | Competitive -> 1
let mode_of_code = function 0 -> Some Delay | 1 -> Some Competitive | _ -> None
let mode_str = function Delay -> "delay" | Competitive -> "competitive"
let role_code = function Pulser -> 0 | Watcher -> 1
let role_of_code = function 0 -> Some Pulser | 1 -> Some Watcher | _ -> None
let role_str = function Pulser -> "pulser" | Watcher -> "watcher"

let evidence_code = function
  | Eta -> 0
  | Heard_delay -> 1
  | Heard_competitive -> 2
  | Quiet -> 3
  | Lost -> 4
  | Won -> 5

let evidence_of_code = function
  | 0 -> Some Eta
  | 1 -> Some Heard_delay
  | 2 -> Some Heard_competitive
  | 3 -> Some Quiet
  | 4 -> Some Lost
  | 5 -> Some Won
  | _ -> None

let evidence_str = function
  | Eta -> "eta"
  | Heard_delay -> "heard_delay"
  | Heard_competitive -> "heard_competitive"
  | Quiet -> "quiet"
  | Lost -> "lost"
  | Won -> "won"

let drop_reason_code = function
  | Queue_full -> 0
  | Policer -> 1
  | Random_loss -> 2
  | Modeled_loss -> 3

let drop_reason_of_code = function
  | 0 -> Some Queue_full
  | 1 -> Some Policer
  | 2 -> Some Random_loss
  | 3 -> Some Modeled_loss
  | _ -> None

let drop_reason_str = function
  | Queue_full -> "queue"
  | Policer -> "policer"
  | Random_loss -> "random"
  | Modeled_loss -> "model"

let fault_kind_code = function
  | F_burst -> 0
  | F_loss_off -> 1
  | F_rate_step -> 2
  | F_outage -> 3
  | F_delay_step -> 4
  | F_jitter -> 5
  | F_ack_loss -> 6
  | F_ack_off -> 7
  | F_kill -> 8

let fault_kind_of_code = function
  | 0 -> Some F_burst
  | 1 -> Some F_loss_off
  | 2 -> Some F_rate_step
  | 3 -> Some F_outage
  | 4 -> Some F_delay_step
  | 5 -> Some F_jitter
  | 6 -> Some F_ack_loss
  | 7 -> Some F_ack_off
  | 8 -> Some F_kill
  | _ -> None

let fault_kind_str = function
  | F_burst -> "burst"
  | F_loss_off -> "lossoff"
  | F_rate_step -> "step"
  | F_outage -> "flap"
  | F_delay_step -> "delay"
  | F_jitter -> "jitter"
  | F_ack_loss -> "acks"
  | F_ack_off -> "acksoff"
  | F_kill -> "kill"

let control_kind_code = function
  | C_extra_delay -> 0
  | C_ack_loss -> 1
  | C_ack_off -> 2
  | C_stop -> 3

let control_kind_of_code = function
  | 0 -> Some C_extra_delay
  | 1 -> Some C_ack_loss
  | 2 -> Some C_ack_off
  | 3 -> Some C_stop
  | _ -> None

let control_kind_str = function
  | C_extra_delay -> "extra_delay"
  | C_ack_loss -> "ack_loss"
  | C_ack_off -> "ack_off"
  | C_stop -> "stop"

(* --- events ---------------------------------------------------------------- *)

type t =
  | Sched of {
      at : float;
      pending : int;
    }
  | Pkt_enqueue of {
      flow : int;
      seq : int;
      qlen : int;
    }
  | Pkt_deliver of {
      flow : int;
      seq : int;
      qdelay : float;
    }
  | Pkt_drop of {
      flow : int;
      seq : int;
      reason : drop_reason;
    }
  | Rate_set of {
      before_mbps : float;
      after_mbps : float;
    }
  | Loss_model of { installed : bool }
  | Fault_fired of {
      fault : fault_kind;
      p1 : float;
      p2 : float;
    }
  | Flow_control of {
      flow : int;
      control : control_kind;
      value : float;
    }
  | Z_tick of {
      z_mbps : float;
      send_mbps : float;
      recv_mbps : float;
      base_mbps : float;
    }
  | Window of {
      eta : float;
      zbar : float;
      tone_lo : float;
      tone_hi : float;
    }
  | Pulse_phase of {
      freq_hz : float;
      value : float;
    }
  | Detection of {
      eta : float;
      mode : mode;
      role : role;
      evidence : evidence;
    }
  | Mode_switch of {
      from_mode : mode;
      to_mode : mode;
      role : role;
    }
  | Elected of { p : float }
  | Demoted
  | Keepalive of {
      tone : float;
      alive : bool;
    }
  | Violation of { rule : int }

let category = function
  | Sched _ -> Engine
  | Pkt_enqueue _ | Pkt_deliver _ | Pkt_drop _ -> Packet
  | Rate_set _ | Loss_model _ -> Bottleneck
  | Fault_fired _ -> Fault
  | Flow_control _ -> Flow
  | Z_tick _ -> Detector
  | Window _ -> Spectrum
  | Pulse_phase _ -> Pulse
  | Detection _ | Mode_switch _ -> Mode
  | Elected _ | Demoted | Keepalive _ -> Election
  | Violation _ -> Invariant

let name = function
  | Sched _ -> "sched"
  | Pkt_enqueue _ -> "pkt_enqueue"
  | Pkt_deliver _ -> "pkt_deliver"
  | Pkt_drop _ -> "pkt_drop"
  | Rate_set _ -> "rate_set"
  | Loss_model _ -> "loss_model"
  | Fault_fired _ -> "fault_fired"
  | Flow_control _ -> "flow_control"
  | Z_tick _ -> "z_tick"
  | Window _ -> "window"
  | Pulse_phase _ -> "pulse_phase"
  | Detection _ -> "detection"
  | Mode_switch _ -> "mode_switch"
  | Elected _ -> "elected"
  | Demoted -> "demoted"
  | Keepalive _ -> "keepalive"
  | Violation _ -> "violation"

(* --- flat slots ------------------------------------------------------------ *)

(* kind codes; keep in sync with Trace's emitters *)

let decode ~kind ~a ~b ~c ~d ~i1 ~i2 ~i3 =
  ignore d;
  match kind with
  | 0 -> Some (Sched { at = a; pending = i1 })
  | 1 -> Some (Pkt_enqueue { flow = i1; seq = i2; qlen = i3 })
  | 2 -> Some (Pkt_deliver { flow = i1; seq = i2; qdelay = a })
  | 3 ->
    Option.map
      (fun reason -> Pkt_drop { flow = i1; seq = i2; reason })
      (drop_reason_of_code i3)
  | 4 -> Some (Rate_set { before_mbps = a; after_mbps = b })
  | 5 -> Some (Loss_model { installed = i1 <> 0 })
  | 6 ->
    Option.map
      (fun fault -> Fault_fired { fault; p1 = a; p2 = b })
      (fault_kind_of_code i1)
  | 7 ->
    Option.map
      (fun control -> Flow_control { flow = i1; control; value = a })
      (control_kind_of_code i2)
  | 8 ->
    Some (Z_tick { z_mbps = a; send_mbps = b; recv_mbps = c; base_mbps = d })
  | 9 -> Some (Window { eta = a; zbar = b; tone_lo = c; tone_hi = d })
  | 10 -> Some (Pulse_phase { freq_hz = a; value = b })
  | 11 -> begin
    match (mode_of_code i1, role_of_code i2, evidence_of_code i3) with
    | Some mode, Some role, Some evidence ->
      Some (Detection { eta = a; mode; role; evidence })
    | _ -> None
  end
  | 12 -> begin
    match (mode_of_code i1, mode_of_code i2, role_of_code i3) with
    | Some from_mode, Some to_mode, Some role ->
      Some (Mode_switch { from_mode; to_mode; role })
    | _ -> None
  end
  | 13 -> Some (Elected { p = a })
  | 14 -> Some Demoted
  | 15 -> Some (Keepalive { tone = a; alive = i1 <> 0 })
  | 16 -> Some (Violation { rule = i1 })
  | _ -> None

(* --- serialization --------------------------------------------------------- *)

let float_str x =
  match Float.classify_float x with
  | FP_nan -> "nan"
  | FP_infinite -> if x > 0. then "inf" else "-inf"
  | FP_zero | FP_subnormal | FP_normal ->
    let s = Printf.sprintf "%.15g" x in
    if Float.equal (float_of_string s) x then s else Printf.sprintf "%.17g" x

let bpf = Printf.bprintf

let to_json buf ~time ev =
  let fs = float_str in
  bpf buf {|{"t":%s,"ev":"%s"|} (fs time) (name ev);
  begin
    match ev with
    | Sched { at; pending } -> bpf buf {|,"at":%s,"pending":%d|} (fs at) pending
    | Pkt_enqueue { flow; seq; qlen } ->
      bpf buf {|,"flow":%d,"seq":%d,"qlen":%d|} flow seq qlen
    | Pkt_deliver { flow; seq; qdelay } ->
      bpf buf {|,"flow":%d,"seq":%d,"qdelay":%s|} flow seq (fs qdelay)
    | Pkt_drop { flow; seq; reason } ->
      bpf buf {|,"flow":%d,"seq":%d,"reason":"%s"|} flow seq
        (drop_reason_str reason)
    | Rate_set { before_mbps; after_mbps } ->
      bpf buf {|,"before":%s,"after":%s|} (fs before_mbps) (fs after_mbps)
    | Loss_model { installed } ->
      bpf buf {|,"installed":%b|} installed
    | Fault_fired { fault; p1; p2 } ->
      bpf buf {|,"fault":"%s","p1":%s,"p2":%s|} (fault_kind_str fault) (fs p1)
        (fs p2)
    | Flow_control { flow; control; value } ->
      bpf buf {|,"flow":%d,"control":"%s","value":%s|} flow
        (control_kind_str control) (fs value)
    | Z_tick { z_mbps; send_mbps; recv_mbps; base_mbps } ->
      bpf buf {|,"z":%s,"send":%s,"recv":%s,"base":%s|} (fs z_mbps)
        (fs send_mbps) (fs recv_mbps) (fs base_mbps)
    | Window { eta; zbar; tone_lo; tone_hi } ->
      bpf buf {|,"eta":%s,"zbar":%s,"lo":%s,"hi":%s|} (fs eta) (fs zbar)
        (fs tone_lo) (fs tone_hi)
    | Pulse_phase { freq_hz; value } ->
      bpf buf {|,"freq":%s,"value":%s|} (fs freq_hz) (fs value)
    | Detection { eta; mode; role; evidence } ->
      bpf buf {|,"eta":%s,"mode":"%s","role":"%s","evidence":"%s"|} (fs eta)
        (mode_str mode) (role_str role) (evidence_str evidence)
    | Mode_switch { from_mode; to_mode; role } ->
      bpf buf {|,"from":"%s","to":"%s","role":"%s"|} (mode_str from_mode)
        (mode_str to_mode) (role_str role)
    | Elected { p } -> bpf buf {|,"p":%s|} (fs p)
    | Demoted -> ()
    | Keepalive { tone; alive } ->
      bpf buf {|,"tone":%s,"alive":%b|} (fs tone) alive
    | Violation { rule } -> bpf buf {|,"rule":%d|} rule
  end;
  Buffer.add_char buf '}'
