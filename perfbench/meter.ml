(* Measurement primitives, all applied from outside the library: a
   nanosecond monotonic clock, order statistics, and the congestion-control
   wrapper that the traced run puts around every Cc_types.t record the
   benchmark creates.  Nothing here reaches into lib/; the wrapper only sees
   the public closure record. *)

module Cc_types = Nimbus_cc.Cc_types
module Engine = Nimbus_sim.Engine

let now () = Monotonic_clock.now ()

let since t0 = Int64.to_float (Int64.sub (now ()) t0) *. 1e-9

(* order statistics of a non-empty sample, [q] in [0, 1] *)
let quantile xs q = Nimbus_dsp.Stats.percentile (Array.of_list xs) (100. *. q)

let median xs = quantile xs 0.5

(* --- congestion-control wrapper ------------------------------------------ *)

type alg =
  | Cubic
  | Nimbus

let alg_name = function Cubic -> "cubic" | Nimbus -> "nimbus"

let hook_names = [| "on_ack"; "on_loss"; "on_tick"; "cwnd"; "pacing_rate" |]

type hook = {
  mutable calls : int;
  mutable ns : int;
  mutable words : float;
}

(* per-algorithm hook tallies, plus engine queue depth sampled from inside
   on_ack so the sampling schedules no events of its own *)
type t = {
  cubic : hook array;
  nimbus : hook array;
  mutable pending : int list;
  mutable acks : int;
}

let fresh_hooks () =
  Array.init (Array.length hook_names) (fun _ ->
      { calls = 0; ns = 0; words = 0. })

let create () =
  { cubic = fresh_hooks (); nimbus = fresh_hooks (); pending = []; acks = 0 }

let hooks t = function Cubic -> t.cubic | Nimbus -> t.nimbus

let[@inline] timed h f x =
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let r = f x in
  let t1 = now () in
  h.ns <- h.ns + Int64.to_int (Int64.sub t1 t0);
  h.words <- h.words +. (Gc.minor_words () -. w0);
  h.calls <- h.calls + 1;
  r

let pending_every = 64

(* [wrap t ~engine alg cc] records call count, self time and minor words of
   each hook.  Hooks never call another flow's hooks, so self time is the
   whole time inside the call. *)
let wrap t ~engine alg (cc : Cc_types.t) : Cc_types.t =
  let h = hooks t alg in
  { cc with
    on_ack =
      (fun a ->
        t.acks <- t.acks + 1;
        if t.acks mod pending_every = 0 then
          t.pending <- Engine.pending engine :: t.pending;
        timed h.(0) cc.on_ack a);
    on_loss = (fun l -> timed h.(1) cc.on_loss l);
    on_tick = Option.map (fun f tk -> timed h.(2) f tk) cc.on_tick;
    cwnd = (fun () -> timed h.(3) cc.cwnd ());
    pacing_rate = (fun () -> timed h.(4) cc.pacing_rate ()) }

(* What [timed] itself adds to one call's recorded time and words, measured
   on an empty hook; the traced run subtracts it from every call. *)
type calibration = {
  cal_ns : float;
  cal_words : float;
}

let calibrate () =
  let h = { calls = 0; ns = 0; words = 0. } in
  (* opaque, so the call stays indirect like a wrapped hook's *)
  let empty = Sys.opaque_identity (fun () -> ()) in
  let n = 200_000 in
  for _ = 1 to n do
    timed h empty ()
  done;
  h.calls <- 0;
  h.ns <- 0;
  h.words <- 0.;
  for _ = 1 to n do
    timed h empty ()
  done;
  { cal_ns = float_of_int h.ns /. float_of_int n;
    cal_words = h.words /. float_of_int n }

(* [self cal h] is (total self ns, total self words) net of the wrapper *)
let self cal h =
  let c = float_of_int h.calls in
  ( Float.max 0. (float_of_int h.ns -. (c *. cal.cal_ns)),
    Float.max 0. (h.words -. (c *. cal.cal_words)) )
