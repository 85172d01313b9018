(** The vocabulary trace events are written in: the filterable
    categories and the enumerations some events carry.

    {!Trace}'s emitters take these values, and {!Trace.flush} writes each
    as its JSONL string.  Floats are written with {!float_str}, so a JSONL
    trace is byte-identical for identical runs regardless of how results
    were scheduled across domains. *)

(** {1 Categories} *)

(** Filterable event category, one bit each (see [--trace-filter]). *)
type cat =
  | Engine  (** scheduler events (sampled) *)
  | Packet  (** sampled packet lifecycle at the bottleneck *)
  | Bottleneck  (** rate changes and loss-model installs *)
  | Fault  (** fault-plan firings *)
  | Flow  (** {!Nimbus_cc.Flow.apply} control mutations *)
  | Detector  (** ẑ estimator ticks (Eq. 1) *)
  | Spectrum  (** per-window η and tone magnitudes (Eq. 3) *)
  | Pulse  (** pulse phase *)
  | Mode  (** detections and mode switches with evidence *)
  | Election  (** pulser election, demotion and keep-alive *)
  | Invariant  (** runtime invariant violations *)

val cats : cat list

(** [cat_bit c] is the category's bit in a trace mask. *)
val cat_bit : cat -> int

val cat_to_string : cat -> string
val cat_of_string : string -> cat option

(** {1 Enumerations carried by events}

    Each constructor's comment is the string a JSONL line carries for
    it. *)

type mode =
  | Delay  (** ["delay"] *)
  | Competitive  (** ["competitive"] *)

type role =
  | Pulser  (** ["pulser"] *)
  | Watcher  (** ["watcher"] *)

(** Why a {!Trace.detection} decided as it did (mirrors
    [Nimbus.evidence]). *)
type evidence =
  | Eta  (** ["eta"]: pulser, its own η verdict *)
  | Heard_delay  (** ["heard_delay"]: watcher, the pulser's delay tone *)
  | Heard_competitive  (** ["heard_competitive"]: watcher, its other tone *)
  | Quiet  (** ["quiet"]: watcher, no tone but not orphaned *)
  | Lost  (** ["lost"]: watcher, tone lost for over 1 s *)
  | Won  (** ["won"]: this flow just became the pulser *)

type drop_reason =
  | Queue_full  (** ["queue"] *)
  | Policer  (** ["policer"] *)
  | Random_loss  (** ["random"] *)
  | Modeled_loss  (** ["model"] *)

(** A fault-plan firing; the strings are the plan's own keywords. *)
type fault_kind =
  | F_burst  (** ["burst"] *)
  | F_loss_off  (** ["lossoff"] *)
  | F_rate_step  (** ["step"] *)
  | F_outage  (** ["flap"] *)
  | F_delay_step  (** ["delay"] *)
  | F_jitter  (** ["jitter"] *)
  | F_ack_loss  (** ["acks"] *)
  | F_ack_off  (** ["acksoff"] *)
  | F_kill  (** ["kill"] *)

type control_kind =
  | C_extra_delay  (** ["extra_delay"] *)
  | C_ack_loss  (** ["ack_loss"] *)
  | C_ack_off  (** ["ack_off"] *)
  | C_stop  (** ["stop"] *)

(** [float_str x] is the shortest decimal string that round-trips to
    [x] ([nan]/[inf]/[-inf] for non-finite values). *)
val float_str : float -> string
