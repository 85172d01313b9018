(** Pluggable trace sinks.

    A sink consumes decoded {!Event.t}s on the flush path (never on
    the hot path) and serializes them somewhere: a channel or a
    caller-owned {!Buffer.t} as JSONL, or an in-memory list for tests.
    JSONL is the only trace file format. *)

type t = {
  emit : time:float -> Event.t -> unit;
  close : unit -> unit;  (** flush and release; idempotent *)
}

(** [jsonl oc] writes one JSON object per line; [close] closes [oc]. *)
val jsonl : out_channel -> t

(** [jsonl_buffer buf] appends JSONL lines to a caller-owned buffer;
    [close] is a no-op (the caller owns [buf]). *)
val jsonl_buffer : Buffer.t -> t

(** [memory ()] is an in-memory sink plus a function returning the
    events collected so far, oldest first. *)
val memory : unit -> t * (unit -> (float * Event.t) list)

(** [null] discards everything. *)
val null : t

(** [summarize_file path] reads a JSONL trace file and renders a
    human-readable summary: event counts by kind, the time range, and
    every mode-switch / election / violation line in order.  It is
    [Error] when the file cannot be read or has a non-blank line that is
    not an object with a numeric ["t"] and a string ["ev"], so any other
    format is rejected. *)
val summarize_file : string -> (string, string) result
