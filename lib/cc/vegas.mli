(** TCP Vegas (Brakmo et al.): keeps the estimated backlog between [alpha]
    and [beta] segments by comparing expected and actual throughput once per
    round trip. A delay-controlling baseline in the paper's evaluation.
    Segments are 1500 bytes, the initial window is 4 segments, [alpha] is 2
    and [beta] 4. *)

(** [make ()] is a fresh Vegas controller. *)
val make : unit -> Cc_types.t
