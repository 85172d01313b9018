(** Flow-completion-time aggregation by flow-size bucket (Appendix B). *)

(** Bucket upper bounds in bytes, mirroring the paper's Fig. 21 x-axis:
    15 KB, 150 KB, 1.5 MB, 15 MB, 150 MB. *)
val buckets : int array

(** [bucketize fcts] groups [(size, fct)] pairs by the first bucket of
    {!buckets} whose bound is [>= size]; oversized flows land in the last
    bucket.  Result has one (possibly empty) array of FCTs in seconds per
    bucket. *)
val bucketize : (int * Units.Time.t) array -> float array array

(** [p95 per_bucket] maps each bucket to its 95th-percentile FCT
    ([nan] for empty buckets). *)
val p95 : float array array -> float array

(** [bucket_label bound] renders "15KB", "1.5MB", ... *)
val bucket_label : int -> string
