(** A small domain pool for index-parallel fan-out, built on stdlib
    [Domain] / [Mutex] / [Condition] only.

    Each {!map} shares one atomic index dispenser between the pool's worker
    domains and the calling domain, which always participates; a map issued
    from inside a pool task therefore drains itself and cannot deadlock.
    Results are stored by index and returned in index order, so
    output is deterministic regardless of scheduling — a pool of
    parallelism 1 runs everything sequentially in the caller.

    Tasks run on arbitrary domains: they must not share non-thread-safe
    mutable state (in this codebase, notably a [Rng.t] or a detector) unless
    they synchronise it themselves. *)

type t

(** [create ?domains ()] spawns a pool of total parallelism [domains]
    (default {!Domain.recommended_domain_count}).  [domains - 1] worker
    domains are spawned; the caller supplies the remaining lane.
    @raise Invalid_argument if [domains < 1]. *)
val create : ?domains:int -> unit -> t

(** [parallelism t] is the pool's total parallelism (workers + caller). *)
val parallelism : t -> int

(** [map t ~f n] is [[| f 0; ...; f (n-1) |]], evaluated across the pool.
    If any [f i] raises, every index still runs to completion and then the
    lowest-indexed failure is re-raised in the caller with the backtrace
    captured on the domain that ran it; the pool stays usable.
    @raise Invalid_argument if [n < 0]. *)
val map : t -> f:(int -> 'a) -> int -> 'a array

(** [shutdown t] stops and joins the worker domains.  Calling {!map} after
    shutdown runs entirely in the caller. *)
val shutdown : t -> unit

(** [run ?domains f] is [f pool] with {!shutdown} guaranteed afterwards. *)
val run : ?domains:int -> (t -> 'a) -> 'a
