(** Preallocated ring-buffer trace collector.

    Events are buffered in parallel [int]/[float] arrays (structure of
    arrays), so recording an event performs only scalar stores: {b
    zero minor words} are allocated per event.  When the collector is
    {!disabled} every emitter is a single masked branch, and call
    sites additionally guard with {!want} so float arguments are never
    even materialized — preserving the repo's steady-tick
    0-minor-word guarantee.

    The buffer is a true ring: once [capacity] events are pending the
    oldest pending event is overwritten and counted in {!dropped}.
    {!flush} writes pending events (oldest first) to the attached output
    as JSONL, one object per line, away from the hot path;
    {!summarize_file} reads such a file back. *)

type t

(** [create ?capacity ~mask ()] — a collector recording only the
    categories in [mask] (see {!Event.cat_bit}, {!parse_filter}).
    [capacity] defaults to 65536 events (~3.5 MB). *)
val create : ?capacity:int -> mask:int -> unit -> t

(** A shared always-off collector; every emitter is a no-op.  Use this
    as the default for [~trace] config slots. *)
val disabled : t

(** [enabled t] — does [t] record anything at all? *)
val enabled : t -> bool

(** [want t cat] — would an event in [cat] be recorded?  Guard hot
    call sites with this so disabled tracing stays allocation-free. *)
val want : t -> Event.cat -> bool

(** Bitmask covering every category. *)
val mask_all : int

(** [parse_filter spec] — comma-separated category names (or ["all"])
    to a mask, e.g. ["detector,mode"]. *)
val parse_filter : string -> (int, string) result

(** {1 Buffer state} *)

(** [recorded t] — events currently pending in the ring. *)
val recorded : t -> int

(** [dropped t] — events overwritten before they could be flushed
    (cumulative). *)
val dropped : t -> int

(** [total t] — events recorded since creation, including dropped
    ones (cumulative). *)
val total : t -> int

(** [clear t] discards pending events (keeps cumulative counters). *)
val clear : t -> unit

(** {1 Output} *)

(** Where {!flush} writes: a channel ({!close} closes it) or a
    caller-owned buffer. *)
type output = [ `Channel of out_channel | `Buffer of Buffer.t ]

(** [attach t out] sets where {!flush} writes, replacing any earlier
    output. *)
val attach : t -> output -> unit

(** [flush t] writes the pending events to the attached output, oldest
    first, one JSONL line each, and empties the ring (no-op without an
    output, keeping them pending).  Every line is
    [{"t":<now>,"ev":"<name>",<fields>}] then a newline, where [name] and
    [fields] are the ones each emitter below lists; floats are written
    with {!Event.float_str}. *)
val flush : t -> unit

(** [close t] flushes, closes a [`Channel] output, and detaches it. *)
val close : t -> unit

(** {1 Emitters}

    One per event kind.  Each doc gives the event's JSONL name and its
    fields in order.  All are cheap masked no-ops when the category is
    filtered out, but wrap hot-path calls in
    [if Trace.want t cat then ...] anyway: OCaml boxes float arguments
    at non-inlined call boundaries, and the guard keeps the disabled
    path allocation-free without relying on the inliner.  [~now] is
    simulation time in seconds; rates are in Mbit/s. *)

(** [sched] (engine): ["at"] the fire time, ["pending"] events. *)
val sched : t -> now:float -> at:float -> pending:int -> unit

(** [pkt_enqueue] (packet): ["flow"], ["seq"], ["qlen"] bytes. *)
val pkt_enqueue : t -> now:float -> flow:int -> seq:int -> qlen:int -> unit

(** [pkt_deliver] (packet): ["flow"], ["seq"], ["qdelay"] seconds. *)
val pkt_deliver : t -> now:float -> flow:int -> seq:int -> qdelay:float -> unit

(** [pkt_drop] (packet): ["flow"], ["seq"], ["reason"]. *)
val pkt_drop :
  t -> now:float -> flow:int -> seq:int -> reason:Event.drop_reason -> unit

(** [rate_set] (bottleneck): ["before"], ["after"]. *)
val rate_set : t -> now:float -> before:float -> after:float -> unit

(** [loss_model] (bottleneck): ["installed"], a JSON boolean. *)
val loss_model : t -> now:float -> installed:bool -> unit

(** [fault_fired] (fault): ["fault"], ["p1"], ["p2"]. *)
val fault_fired :
  t -> now:float -> fault:Event.fault_kind -> p1:float -> p2:float -> unit

(** [flow_control] (flow): ["flow"], ["control"], ["value"]. *)
val flow_control :
  t -> now:float -> flow:int -> control:Event.control_kind -> value:float ->
  unit

(** [z_tick] (detector): ["z"], ["send"], ["recv"], ["base"]. *)
val z_tick :
  t -> now:float -> z:float -> send:float -> recv:float -> base:float -> unit

(** [window] (spectrum): ["eta"], ["zbar"], ["lo"], ["hi"]. *)
val window :
  t -> now:float -> eta:float -> zbar:float -> lo:float -> hi:float -> unit

(** [pulse_phase] (pulse): ["freq"], ["value"]. *)
val pulse_phase : t -> now:float -> freq:float -> value:float -> unit

(** [detection] (mode): ["eta"], ["mode"], ["role"], ["evidence"]. *)
val detection :
  t ->
  now:float ->
  eta:float ->
  mode:Event.mode ->
  role:Event.role ->
  evidence:Event.evidence ->
  unit

(** [mode_switch] (mode): ["from"], ["to"], ["role"]. *)
val mode_switch :
  t ->
  now:float ->
  from_mode:Event.mode ->
  to_mode:Event.mode ->
  role:Event.role ->
  unit

(** [elected] (election): ["p"]. *)
val elected : t -> now:float -> p:float -> unit

(** [demoted] (election): no fields. *)
val demoted : t -> now:float -> unit

(** [keepalive] (election): ["tone"], ["alive"], a JSON boolean. *)
val keepalive : t -> now:float -> tone:float -> alive:bool -> unit

(** [violation] (invariant): ["rule"], a {!Nimbus_metrics.Invariant} rule
    code. *)
val violation : t -> now:float -> rule:int -> unit

(** {1 Reading} *)

(** [summarize_file path] reads a JSONL trace file in one streaming pass
    and renders a human-readable summary: event counts by kind, the
    smallest and largest time, and every [detection], [mode_switch], [elected],
    [demoted], [fault_fired] and [violation] line in order.  It is [Error] when the file cannot be read,
    has a non-blank line that is not an object with a numeric ["t"] and a
    string ["ev"] (so any other format is rejected), or ends in a line
    with no newline (a trace cut short). *)
val summarize_file : string -> (string, string) result
