(** Pluggable trace sinks.

    A sink consumes decoded {!Event.t}s on the flush path (never on
    the hot path) and serializes them somewhere: a channel as JSONL,
    CSV or compact binary, a caller-owned {!Buffer.t}, or an
    in-memory list for tests. *)

type t = {
  emit : time:float -> Event.t -> unit;
  close : unit -> unit;  (** flush and release; idempotent *)
}

(** [jsonl oc] writes one JSON object per line; [close] closes [oc]. *)
val jsonl : out_channel -> t

(** [csv oc] writes {!Event.csv_header} then one row per event;
    [close] closes [oc]. *)
val csv : out_channel -> t

(** [binary oc] writes {!Event.binary_magic} then fixed-width records;
    [close] closes [oc]. *)
val binary : out_channel -> t

(** [jsonl_buffer buf] appends JSONL lines to a caller-owned buffer;
    [close] is a no-op (the caller owns [buf]). *)
val jsonl_buffer : Buffer.t -> t

(** [memory ()] is an in-memory sink plus a function returning the
    events collected so far, oldest first. *)
val memory : unit -> t * (unit -> (float * Event.t) list)

(** [null] discards everything. *)
val null : t

(** [summarize_file path] reads a JSONL or binary trace file (sniffed
    by magic) and renders a human-readable summary: event counts by
    kind, the time range, and every mode-switch / election / violation
    line in order.  It is [Error] when the file cannot be read, is a CSV
    trace, is neither NIMTRC01 binary nor JSONL, has a binary body that is
    not a whole number of records or holds a record that does not decode,
    or has a JSONL line that is not an object with a numeric ["t"] and a
    string ["ev"]. *)
val summarize_file : string -> (string, string) result
