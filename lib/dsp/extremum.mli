(** Windowed extremum filters: the largest (or smallest) value among the
    samples of a trailing time window.

    ẑ's µ is the largest receive rate over the last 10 s; BBR keeps the
    largest delivery rate over ~10 RTTs and the smallest RTT over 10 s;
    Copa keeps the smallest and largest RTT over 10 s and the smallest
    over the last half RTT.  All of them are this filter.

    A filter is a monotone deque of (time, value) entries: a push first
    drops every older entry whose value the new one matches or beats,
    since none of those can be the extremum of a window that holds the
    new sample.  Each sample is pushed and dropped at most once, so push
    and prune cost O(1) amortized.  The entries live in two growable float
    arrays that start empty: a filter that never sees a sample owns no
    buffer.  A min filter is a max filter over negated values.

    {b The register.}  Times and values travel through the filter's own
    two-slot float array ({!reg}), as the engine's key register does for
    timer keys: a float passed to or returned from a function of another
    module is a fresh box, one written into a float array is not.  The
    caller writes slot 0 (a time) and slot 1 (a value) before a call, and
    reads slot 1 after a query.  Both slots start as NaN, and the filter
    writes slot 1 in its queries only, so a query's result stays there
    until the caller overwrites it.  Every call below allocates nothing
    once the arrays have grown.

    Times must not decrease from one push to the next. *)

type t

(** [max ()] is an empty filter for the largest value. *)
val max : unit -> t

(** [min ()] is an empty filter for the smallest value. *)
val min : unit -> t

(** [reg t] is the filter's register: slot 0 a time, slot 1 a value. *)
val reg : t -> Float.Array.t

(** [push t] appends the sample at time slot 0 with value slot 1.  A NaN
    value is skipped, so it can never win the window. *)
val push : t -> unit

(** [prune t] drops, for good, every entry whose time is before slot 0.
    A NaN horizon drops nothing. *)
val prune : t -> unit

(** [front t] writes into slot 1 the extremum of the entries: the
    window's maximum (minimum), or [neg_infinity] ([infinity]) when the
    filter is empty. *)
val front : t -> unit

(** [standing t] writes into slot 1 the extremum of the entries at or after
    the time in slot 0, found by walking back from the newest entry (it
    costs the entries it walks); the empty value of {!front} when there is
    none.  That equals the extremum of every sample pushed at or after
    that time and not yet pruned. *)
val standing : t -> unit

