(* Deliberate det-global-random / det-wall-clock violations (test fixture). *)

let seed_everything () = Random.self_init ()

let draw () = Random.float 1.0

let stamp () = Sys.time ()

(* det-bare-suppression: a [@det_ok] without a reason string is itself a
   finding, though it still swallows the wall-clock read underneath *)
let stamp_bare () = (Sys.time ()) [@det_ok]
