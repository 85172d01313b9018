module Time = Units.Time
module Trace = Nimbus_trace.Trace
module Span = Nimbus_trace.Span

(* A queued event: a thunk, or a packet leg (a handler built once and the
   packet it is applied to).  Cells are recycled through a free list, so
   scheduling either kind allocates nothing in steady state.  A cell whose
   [pkt] is {!Packet.none} holds a thunk. *)
type cell = {
  mutable thunk : unit -> unit;
  mutable leg : Packet.t -> unit;
  mutable pkt : Packet.t;
}

let no_thunk () = ()

let no_leg (_ : Packet.t) = ()

type spare = ..

type spare += No_spare

(* The clock and queue keys stay raw float internally — the typed boundary
   is the .mli.  The clock lives in a one-slot float array, so the drain
   loop stores each event's key without boxing it, and hot readers in other
   modules read it in place through {!clock}.  {!now} boxes the clock at
   most once per instant: [now_box] is refreshed lazily when [now_stale]. *)
type t = {
  clock : Float.Array.t;
  mutable now_box : Time.t;
  mutable now_stale : bool;
  events : cell Wheel.t;
  key : Float.Array.t; (* the queue's key register, {!Wheel.key_reg} *)
  mutable free : cell array;
  mutable nfree : int;
  (* the recycler: a LIFO of spares handed back by finished elements,
     live in [spares.(0 .. nspares - 1)] *)
  mutable spares : spare array;
  mutable nspares : int;
  trace : Trace.t;
  mutable scheds : int;
  mutable flow_ids : int;
}

module Config = struct
  type t = { trace : Trace.t }

  let default =
    { trace = Trace.disabled }
  [@@shared_ok
    "Trace.disabled is the inert zero-capacity collector (empty rings, \
     mask 0): every emit is a no-op, so sharing it across domains is \
     write-free"]
end

(* scheduler events are high-volume and low-information individually, so only
   every [sched_sample]-th one is traced *)
let sched_sample = 256

let create (c : Config.t) =
  let events = Wheel.create () in
  { clock = Float.Array.make 1 0.; now_box = Time.zero; now_stale = false;
    events; key = Wheel.key_reg events; free = [||]; nfree = 0;
    spares = [||]; nspares = 0; trace = c.Config.trace; scheds = 0;
    flow_ids = 0 }

let trace t = t.trace

(* flow ids are engine-scoped, not process-global: every run of the same
   scenario numbers its flows identically, which is what makes traced runs
   byte-identical across repeats and across --jobs fan-out *)
let fresh_flow_id t =
  let id = t.flow_ids in
  t.flow_ids <- id + 1;
  id

let clock t = t.clock

let now t =
  if t.now_stale then begin
    t.now_box <- Time.secs (Float.Array.unsafe_get t.clock 0);
    t.now_stale <- false
  end;
  t.now_box

let[@inline] set_clock t x =
  Float.Array.unsafe_set t.clock 0 x;
  t.now_stale <- true
[@@alloc_free]

let acquire t =
  if t.nfree = 0 then
    ({ thunk = no_thunk; leg = no_leg; pkt = Packet.none }
    [@alloc_ok "the free list is empty: a new cell, recycled from then on"])
  else begin
    t.nfree <- t.nfree - 1;
    t.free.(t.nfree)
  end
[@@alloc_free]

let release t c =
  if t.nfree = Array.length t.free then begin
    let free = (Array.make (max 16 (2 * t.nfree)) c
               [@alloc_ok "amortized free-list doubling"]) in
    Array.blit t.free 0 free 0 t.nfree;
    t.free <- free
  end;
  t.free.(t.nfree) <- c;
  t.nfree <- t.nfree + 1
[@@alloc_free]

let put_spare t s =
  if t.nspares = Array.length t.spares then begin
    let spares = (Array.make (max 16 (2 * t.nspares)) No_spare
                  [@alloc_ok "amortized LIFO doubling"]) in
    Array.blit t.spares 0 spares 0 t.nspares;
    t.spares <- spares
  end;
  t.spares.(t.nspares) <- s;
  t.nspares <- t.nspares + 1
[@@alloc_free]

(* the taken slot is cleared, so the LIFO keeps nothing it handed out *)
let take_spare t =
  if t.nspares = 0 then No_spare
  else begin
    t.nspares <- t.nspares - 1;
    let s = t.spares.(t.nspares) in
    t.spares.(t.nspares) <- No_spare;
    s
  end
[@@alloc_free]

(* the key is in the register *)
let push_thunk t f =
  let c = acquire t in
  c.thunk <- f;
  Wheel.push_reg t.events c
[@@alloc_free]

(* A NaN or infinite key would silently corrupt the heap order (every
   comparison against NaN is false), so every entry point rejects
   non-finite times before they reach the queue.  The [_key] entries read
   the time the caller wrote into the register; the others write it there
   first. *)
let key t = t.key

let[@inline] schedule_at_key t f =
  let time = Float.Array.unsafe_get t.key 0 in
  let clock = Float.Array.unsafe_get t.clock 0 in
  if not (Float.is_finite time) then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: non-finite time (%h)" time);
  if time < clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: %.9f is before now (%.9f)" time
         clock);
  if Trace.want t.trace Nimbus_trace.Event.Engine then begin
    t.scheds <- t.scheds + 1;
    if t.scheds mod sched_sample = 0 then
      Trace.sched t.trace ~now:clock ~at:time ~pending:(Wheel.size t.events)
  end;
  push_thunk t f
[@@alloc_free]

let schedule_at t time f =
  Float.Array.unsafe_set t.key 0 (time : Time.t :> float);
  schedule_at_key t f

(* the register holds a delay: the event's key, [delay] from now, replaces
   it *)
let set_key_in t ~fn =
  let delay = Float.Array.unsafe_get t.key 0 in
  if not (Float.is_finite delay) then
    invalid_arg (Printf.sprintf "Engine.%s: non-finite delay (%h)" fn delay);
  if delay < 0. then invalid_arg (Printf.sprintf "Engine.%s: negative delay" fn);
  Float.Array.unsafe_set t.key 0 (Float.Array.unsafe_get t.clock 0 +. delay)
[@@alloc_free]

let[@inline] schedule_in_key t f =
  set_key_in t ~fn:"schedule_in";
  push_thunk t f
[@@alloc_free]

let schedule_in t delay f =
  Float.Array.unsafe_set t.key 0 (delay : Time.t :> float);
  schedule_in_key t f
[@@alloc_free]

let schedule_pkt_in t delay h pkt =
  (* a cell holding [Packet.none] is a thunk's *)
  if pkt == Packet.none then invalid_arg "Engine.schedule_pkt_in: Packet.none";
  Float.Array.unsafe_set t.key 0 (delay : Time.t :> float);
  set_key_in t ~fn:"schedule_pkt_in";
  let c = acquire t in
  c.leg <- h;
  c.pkt <- pkt;
  Wheel.push_reg t.events c
[@@alloc_free]

let every t ~dt ?start ?until f =
  let dt = Time.to_secs dt in
  if not (Float.is_finite dt) then
    invalid_arg (Printf.sprintf "Engine.every: non-finite dt (%h)" dt);
  if dt <= 0. then invalid_arg "Engine.every: dt <= 0";
  let first =
    match start with
    | Some s -> Time.to_secs s
    | None -> Float.Array.get t.clock 0 +. dt
  in
  let until = Option.map Time.to_secs until in
  let rec tick () =
    f ();
    let next = Float.Array.get t.clock 0 +. dt in
    match until with
    | Some stop when next > stop -> ()
    | _ ->
      Float.Array.unsafe_set t.key 0 next;
      schedule_at_key t tick
  in
  schedule_at t (Time.secs first) tick

(* The drain loop runs once per event, so it reads the queue through its
   key register instead of option/tuple/float-returning wrappers: verified
   allocation-free by tool/analyze.  A popped cell is emptied and recycled
   before its event runs, so the event may schedule into it again.  The
   handler call itself is opaque to the checker ([@alloc_ok]); handlers
   allocate on their own budget, the loop machinery must not. *)
let rec drain t ~horizon =
  if not (Wheel.is_empty t.events) then begin
    Wheel.load_top_key t.events;
    let key = Float.Array.unsafe_get t.key 0 in
    if key <= horizon then begin
      (* events at one instant share the clock's box *)
      if not (Float.equal key (Float.Array.unsafe_get t.clock 0)) then
        set_clock t key;
      let c = Wheel.pop_top t.events in
      let pkt = c.pkt in
      if pkt == Packet.none then begin
        let f = c.thunk in
        c.thunk <- no_thunk;
        release t c;
        (f () [@alloc_ok "opaque event callback; staying allocation-free is \
                          part of the handler author's contract"])
      end
      else begin
        let h = c.leg in
        c.leg <- no_leg;
        c.pkt <- Packet.none;
        release t c;
        (h pkt [@alloc_ok "opaque packet handler, on its own budget like a \
                           thunk"])
      end;
      drain t ~horizon
    end
  end
[@@alloc_free]

let run_until t horizon =
  let horizon = Time.to_secs horizon in
  Span.enter Engine_drain;
  drain t ~horizon;
  if Float.Array.get t.clock 0 < horizon then set_clock t horizon;
  Span.leave Engine_drain

let pending t = Wheel.size t.events
