(** Runtime invariant monitor: audits simulation state every tick and
    reports violations instead of letting a fault (or a bug the fault
    uncovers) silently corrupt result tables.

    Built-in rules:
    - {e packet conservation} — at every audited link,
      [offered = delivered + drops + queued] at every instant;
    - {e queue non-negativity} — byte and packet queue lengths [>= 0];
    - {e finite signals} — each watched Nimbus controller's ẑ and η are
      finite or NaN (the repo-wide "not yet measured" sentinel), never
      infinite;
    - {e mode-switch hysteresis} — two mode switches of a watched controller
      closer than 250 ms mean the asymmetric-hysteresis contract broke
      (a genuine switch needs a ≥ 3-verdict streak, i.e. ≥ 300 ms).

    Additional experiment-specific predicates can be attached with
    {!add_check}. *)

type rule =
  | Conservation
  | Queue_nonneg
  | Finite_signal
  | Mode_hysteresis
  | Custom of string  (** an {!add_check} predicate, by name *)

type violation = {
  v_time : Units.Time.t;
  v_rule : rule;
  v_detail : string;
}

type t

(** [create engine ?bottlenecks ?nimbus ()] starts auditing every 10 ms of
    simulated time, for the rest of the run.
    @param bottlenecks labelled links whose conservation ledger and queue
           to audit — one entry per topology link, labelled by
           [Topology.link_label] (see [Common.audit], which also adds the
           fabric-level identity)
    @param nimbus labelled controllers whose signals and mode switches to
           audit *)
val create :
  Nimbus_sim.Engine.t ->
  ?bottlenecks:(string * Nimbus_sim.Bottleneck.t) list ->
  ?nimbus:(string * Nimbus_core.Nimbus.t) list ->
  unit ->
  t

(** [add_check t ~name check] runs [check ()] every audit tick; [Some
    detail] records a [Custom name] violation. *)
val add_check : t -> name:string -> (unit -> string option) -> unit

(** [violations t] — recorded violations in time order (capped at 1000;
    {!count} keeps counting past the cap). *)
val violations : t -> violation list

(** [count t] is the total number of violations observed. *)
val count : t -> int

(** [ok t] is [count t = 0]. *)
val ok : t -> bool

(** [report t] is a human-readable violation summary (one line per
    violation), used by the CLI fault matrix and CI artifact. *)
val report : t -> string
