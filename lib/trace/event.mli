(** Typed trace events and their JSONL codec.

    Every event flattens to a fixed-width slot record — one kind code,
    a timestamp, four floats and three ints — so the collector
    ({!Trace}) can buffer events in preallocated parallel arrays
    without allocating.  The structured {!t} view only exists on the
    flush path, where sinks serialize it to JSONL.

    Floats are serialized with shortest-round-trip formatting so a
    JSONL trace is byte-identical for identical runs regardless of how
    results were scheduled across domains. *)

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

(** {1 Enumerations carried by events} *)

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

val mode_code : mode -> int
val role_code : role -> int
val evidence_code : evidence -> int
val drop_reason_code : drop_reason -> int
val fault_kind_code : fault_kind -> int
val control_kind_code : control_kind -> int

(** {1 Events} *)

type t =
  | Sched of {
      at : float;  (** scheduled fire time, seconds *)
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
      qdelay : float;  (** queueing delay, seconds *)
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
  | Violation of { rule : int  (** {!Nimbus_metrics.Invariant} rule code *) }

(** [category ev] is the category [ev] is filtered under. *)
val category : t -> cat

(** [name ev] is the short event name used in JSONL output. *)
val name : t -> string

(** {1 Codecs} *)

(** [decode ~kind ~a ~b ~c ~d ~i1 ~i2 ~i3] rebuilds the structured
    event from its flat slots; [None] on an unknown kind or enum
    code. *)
val decode :
  kind:int ->
  a:float ->
  b:float ->
  c:float ->
  d:float ->
  i1:int ->
  i2:int ->
  i3:int ->
  t option

(** [float_str x] is the shortest decimal string that round-trips to
    [x] ([nan]/[inf]/[-inf] for non-finite values). *)
val float_str : float -> string

(** [to_json buf ~time ev] appends one JSONL object (no trailing
    newline). *)
val to_json : Buffer.t -> time:float -> t -> unit
