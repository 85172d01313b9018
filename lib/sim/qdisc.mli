(** Queue disciplines for the bottleneck buffer.

    Drop-tail is the paper's default; PIE is used by the §8.2 AQM robustness
    experiments. The discipline decides admission; the bottleneck owns the
    actual FIFO. *)

type t

(** The discipline's verdict on an arriving packet. *)
type decision =
  | Admit
  | Drop

(** [droptail ~capacity_bytes] drops arrivals that would overflow the
    buffer. *)
val droptail : capacity_bytes:int -> t

(** [pie ~capacity_bytes ~target_delay ~link_rate ~rng] implements the
    PIE AQM (RFC 8033, simplified): a drop probability is updated every
    15 ms from the estimated queueing delay [qlen·8/rate] against
    [target_delay], and arrivals are dropped randomly with that probability
    (plus tail drop at [capacity_bytes]). *)
val pie :
  capacity_bytes:int ->
  target_delay:Units.Time.t ->
  link_rate:Units.Rate.t ->
  rng:Rng.t ->
  t

(** [capacity_bytes t]. *)
val capacity_bytes : t -> int

(** [decide t ~now ~qlen_bytes ~pkt_size] is the discipline's verdict on an
    arriving packet given the current backlog. Advances internal AQM
    state. *)
val decide :
  t -> now:Units.Time.t -> qlen_bytes:int -> pkt_size:int -> decision

(** [reads_clock t] holds when {!decide} reads its [~now] argument: PIE
    does, drop-tail does not, so a caller can skip boxing the clock. *)
val reads_clock : t -> bool

(** [name t] is ["droptail"] or ["pie"]. *)
val name : t -> string
