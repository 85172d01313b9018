(** Fleet-scale Monte-Carlo path sweep (DESIGN.md §16).

    Runs the {!Path_model} population at 10^4+ paths over a protocol matrix,
    sharded across the profile's pool, with checkpointed resume, a per-case
    wall-clock watchdog with seed-rekeyed retries, O(1)-memory streaming
    aggregation (P² quantiles + Welford moments), and automatic triage
    re-runs of the worst-k outlier paths. *)

(** Raised (by the watchdog closure, inside the engine loop) when a case
    exceeds its per-attempt wall-clock budget. *)
exception Case_timeout

(** Why a sweep's checkpoint or triage output is unusable; each carries the
    message to print. *)
type output_error =
  | Checkpoint_incompatible of string
      (** [sw_resume] found a checkpoint whose header was written by a sweep
          with different parameters *)
  | Checkpoint_incomplete of string
      (** [sw_triage_only] is set but the checkpoint does not cover every
          shard: triage can only be replayed from a complete sweep *)
  | Unwritable of string
      (** the checkpoint or [sw_triage_dir] cannot be read or written (a
          directory given as the checkpoint, a file as the triage dir, a
          missing parent, a failed write) *)

(** Raised by {!run}, which checks both output paths before the first
    shard. *)
exception Output_error of output_error

type failure =
  | F_timeout of int  (** attempts consumed *)
  | F_crash of int

(** One (path, scheme) result: throughput (bps) and mean RTT (secs), or a
    typed failure after retries were exhausted. *)
type cell = (float * float, failure) result

type config = {
  sw_paths : int;
  sw_seed : int;  (** {!Path_model.sampler} seed *)
  sw_schemes : Common.scheme list;
  sw_profile : Common.profile;
  sw_shard : int;  (** paths per shard (checkpoint granularity) *)
  sw_budget : float;  (** wall secs per case attempt; [<= 0.] disables *)
  sw_retries : int;  (** retries after the first attempt *)
  sw_checkpoint : string option;
  sw_resume : bool;
  sw_stop_after : int option;
      (** stop once this many shards are complete (interrupt injection for
          tests/CI; the outcome is flagged [interrupted]) *)
  sw_triage_k : int;
  sw_triage_dir : string option;
  sw_triage_only : bool;
      (** skip the shard loop entirely: restore every shard from the
          checkpoint (implies [sw_resume]) and go straight to the worst-k
          triage re-runs — the final tables are byte-identical to the full
          run that wrote the checkpoint.
          @raise Output_error [Checkpoint_incomplete] if any shard is
          missing *)
  sw_clock : unit -> float;  (** watchdog wall clock (tests inject a fake) *)
  sw_log : string -> unit;  (** progress; never part of the tables *)
}

(** [config ()] with the defaults described above; raises [Invalid_argument]
    on nonsensical sizes, on a negative [stop_after] or [triage_k], and on a
    [budget] that is negative or not finite.  [schemes] defaults to
    nimbus/cubic/bbr/vegas — the Fig. 18 matrix. *)
val config :
  ?paths:int ->
  ?seed:int ->
  ?schemes:Common.scheme list ->
  ?profile:Common.profile ->
  ?shard_size:int ->
  ?budget:float ->
  ?retries:int ->
  ?checkpoint:string ->
  ?resume:bool ->
  ?stop_after:int ->
  ?triage_k:int ->
  ?triage_dir:string ->
  ?triage_only:bool ->
  ?clock:(unit -> float) ->
  ?log:(string -> unit) ->
  unit ->
  config

(** [scheme_of_name "cubic"] — the CLI's scheme registry. *)
val scheme_of_name : string -> Common.scheme option

type outcome = {
  tables : Table.t list;  (** empty when [interrupted] *)
  interrupted : bool;  (** [sw_stop_after] fired before the sweep finished *)
  completed_shards : int;
  total_shards : int;
  paths_done : int;
  failures : int;  (** timeout + crash cells, across all schemes *)
}

(** [run cfg] executes (or resumes) the sweep.  Deterministic given
    [sw_budget <= 0]: the final tables are byte-identical whatever the pool
    size and however many times the sweep was interrupted and resumed.
    @raise Output_error see {!output_error} *)
val run : config -> outcome

(** {1 Checkpoint internals} — exposed for the test suite. *)

val shard_line : idx:int -> base:int -> cell list -> string

val parse_shard_line : string -> (int * int * cell list) option

val cell_to_string : cell -> string

val cell_of_string : string -> cell
