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

let float_str x =
  match Float.classify_float x with
  | FP_nan -> "nan"
  | FP_infinite -> if x > 0. then "inf" else "-inf"
  | FP_zero | FP_subnormal | FP_normal ->
    let s = Printf.sprintf "%.15g" x in
    if Float.equal (float_of_string s) x then s else Printf.sprintf "%.17g" x
