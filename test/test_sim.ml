(* Unit and property tests for the discrete-event simulation substrate. *)

open Nimbus_sim
module Time = Units.Time
module Rate = Units.Rate

let check_close ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* --- heap ---------------------------------------------------------------- *)

(* [Heap.push_seq] takes its key from a float array, as the wheel's register
   hands it over *)
let heap_push h ~key ~seq v = Heap.push_seq h (Float.Array.make 1 key) 0 ~seq v

(* every entry's key, in pop order *)
let drain_keys h =
  let rec go acc =
    if Heap.is_empty h then List.rev acc
    else begin
      let k = Heap.top_key h in
      ignore (Heap.pop_top h);
      go (k :: acc)
    end
  in
  go []

let test_heap_sorted_pops () =
  let h = Heap.create () in
  List.iteri
    (fun seq k -> heap_push h ~key:k ~seq k)
    [ 5.; 1.; 4.; 2.; 3. ];
  Alcotest.(check (list (float 0.))) "sorted" [ 1.; 2.; 3.; 4.; 5. ]
    (drain_keys h)

let test_heap_fifo_ties () =
  let h = Heap.create () in
  (* equal keys pop by sequence number, whatever the push order *)
  List.iter
    (fun (seq, v) -> heap_push h ~key:1. ~seq v)
    [ (2, "c"); (0, "a"); (1, "b") ];
  let first = Heap.pop_top h in
  let second = Heap.pop_top h in
  let third = Heap.pop_top h in
  Alcotest.(check (list string)) "sequence order among equal keys"
    [ "a"; "b"; "c" ] [ first; second; third ]

let test_heap_top () =
  let h = Heap.create () in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  heap_push h ~key:2. ~seq:0 ();
  heap_push h ~key:1. ~seq:1 ();
  Alcotest.(check (float 0.)) "top key" 1. (Heap.top_key h);
  Alcotest.(check int) "top seq" 1 h.Heap.seqs.(0);
  Alcotest.(check int) "size" 2 (Heap.size h);
  Heap.pop_top h;
  Alcotest.(check (float 0.)) "next key" 2. (Heap.top_key h);
  Alcotest.(check int) "next seq" 0 h.Heap.seqs.(0);
  Heap.pop_top h;
  Alcotest.(check bool) "drained" true (Heap.is_empty h)

let prop_heap_sorts =
  QCheck.Test.make ~count:100 ~name:"heap: pops are sorted"
    QCheck.(list (float_bound_exclusive 1000.))
    (fun keys ->
      let h = Heap.create () in
      List.iteri (fun seq k -> heap_push h ~key:k ~seq ()) keys;
      let popped = drain_keys h in
      List.length popped = List.length keys
      && fst
           (List.fold_left
              (fun (ok, prev) k -> (ok && k >= prev, k))
              (true, neg_infinity) popped))

(* --- wheel --------------------------------------------------------------- *)

let test_wheel_sorted_pops () =
  let w = Wheel.create () in
  List.iter (fun k -> Wheel.push w ~key:k k) [ 5e-3; 1e-3; 4e-3; 2e-3; 3e-3 ];
  let rec drain acc =
    if Wheel.is_empty w then List.rev acc
    else begin
      let k = Wheel.top_key w in
      let v = Wheel.pop_top w in
      check_close "key matches payload" v k;
      drain (k :: acc)
    end
  in
  Alcotest.(check (list (float 0.)))
    "sorted" [ 1e-3; 2e-3; 3e-3; 4e-3; 5e-3 ] (drain [])

let test_wheel_fifo_across_spill () =
  (* a key first lands in the overflow heap (beyond the 256-slot horizon),
     then — after the cursor advances — the same key lands in a slot; the
     shared sequence counter must keep the pops in push order *)
  let w = Wheel.create () (* 256 x 256 us ~ 65.5 ms horizon *) in
  Wheel.push w ~key:0.0768 "a" (* 300 slots ahead: spills to the heap *);
  Wheel.push w ~key:0.03 "b" (* in a slot *);
  Alcotest.(check string) "near event first" "b" (Wheel.pop_top w);
  (* cursor is now at slot 117, so 0.0768 is within the horizon *)
  Wheel.push w ~key:0.0768 "c";
  Wheel.push w ~key:0.0768 "d";
  (* explicit lets: list elements would evaluate right-to-left *)
  let first = Wheel.pop_top w in
  let second = Wheel.pop_top w in
  let third = Wheel.pop_top w in
  Alcotest.(check (list string)) "FIFO across heap and slots" [ "a"; "c"; "d" ]
    [ first; second; third ];
  Alcotest.(check bool) "drained" true (Wheel.is_empty w)

(* With a far timer pending in the overflow heap, every pop compares the
   slot head against the heap top.  Read through [Heap.top_key], that boxed a
   float per comparison, and passing the popped key to [advance_to_key] as a
   float boxed one more; read in place, a pop allocates nothing. *)
let test_wheel_far_timer_pop_alloc () =
  let w = Wheel.create () in
  Wheel.push w ~key:100. ();
  for _ = 1 to 100 do
    Wheel.push w ~key:1e-3 ();
    Wheel.pop_top w
  done;
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Wheel.push w ~key:1e-3 ();
    Wheel.pop_top w
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.)) "minor words over 10k push/pop" 0. words;
  Alcotest.(check int) "the far timer is still pending" 1 (Wheel.size w)

(* A push beyond the wheel's horizon spills to the overflow heap.  The key
   goes over in the wheel's register, so a far push (an RTO arm, an
   [Engine.every] tick) allocates nothing; passed as a float argument it
   boxed 2 words. *)
let test_wheel_far_timer_push_alloc () =
  let w = Wheel.create () in
  let reg = Wheel.key_reg w in
  let far_push_pop i =
    Float.Array.set reg 0 (100. *. float_of_int i);
    Wheel.push_reg w ();
    Wheel.pop_top w
  in
  for i = 1 to 100 do
    far_push_pop i
  done;
  let before = Gc.minor_words () in
  for i = 101 to 10_100 do
    far_push_pop i
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.)) "minor words over 10k far push/pop" 0. words;
  Alcotest.(check bool) "drained" true (Wheel.is_empty w)

let test_wheel_wraparound () =
  (* interleaved push/pop walking far past nslots * width: the physical
     slots wrap around many times and order must survive *)
  let w = Wheel.create () (* 256 x 256 us ~ 65.5 ms horizon *) in
  for i = 0 to 499 do
    let base = float_of_int i *. 0.02 in
    Wheel.push w ~key:base (2 * i);
    Wheel.push w ~key:(base +. 0.001) ((2 * i) + 1);
    Alcotest.(check int) "first of pair" (2 * i) (Wheel.pop_top w);
    Alcotest.(check int) "second of pair" ((2 * i) + 1) (Wheel.pop_top w)
  done;
  Alcotest.(check int) "empty" 0 (Wheel.size w)

let prop_wheel_matches_heap =
  (* the equivalence contract behind switching Engine onto the wheel: under
     random schedules (quantized keys force ties, the delay tail reaches past
     the horizon to exercise the heap spill) the wheel pops exactly the
     (key, value) sequence the FIFO-tie-breaking heap does *)
  QCheck.Test.make ~count:80 ~name:"wheel: pop order identical to heap"
    QCheck.(pair (int_range 0 100_000) (int_range 1 400))
    (fun (seed, nops) ->
      let rng = Rng.create seed in
      let w = Wheel.create () in
      let h = Heap.create () in
      let now = ref 0. in
      let next = ref 0 in
      let ok = ref true in
      let pop_both () =
        let wk = Wheel.top_key w and hk = Heap.top_key h in
        let wv = Wheel.pop_top w and hv = Heap.pop_top h in
        if not (Float.equal wk hk) || wv <> hv then ok := false;
        now := hk
      in
      for _ = 1 to nops do
        if Wheel.is_empty w || Rng.bool rng ~p:0.7 then begin
          let key = !now +. (float_of_int (Rng.int rng 40) *. 8e-3) in
          Wheel.push w ~key !next;
          heap_push h ~key ~seq:!next !next;
          incr next
        end
        else pop_both ()
      done;
      while not (Wheel.is_empty w) do
        pop_both ()
      done;
      !ok && Heap.is_empty h)

let prop_wheel_dense_slots_match_heap =
  (* the same contract where the one above cannot reach: several distinct
     keys per slot (offsets below the 64 us slot width), same-key bursts of
     100-1000 entries (hundreds of flow ticks on one instant), pushes at
     [key = now] into the slot being drained, far keys past the horizon,
     and enough push/pop churn on a slot to make it both compact in place
     and double *)
  QCheck.Test.make ~count:60 ~name:"wheel: dense slots pop like the heap"
    QCheck.(pair (int_range 0 100_000) (int_range 1 300))
    (fun (seed, nops) ->
      let rng = Rng.create seed in
      let w = Wheel.create () in
      let h = Heap.create () in
      let now = ref 0. in
      let next = ref 0 in
      let ok = ref true in
      let push key =
        Wheel.push w ~key !next;
        heap_push h ~key ~seq:!next !next;
        incr next
      in
      let pop_both () =
        let wk = Wheel.top_key w and hk = Heap.top_key h in
        let wv = Wheel.pop_top w and hv = Heap.pop_top h in
        if not (Float.equal wk hk) || wv <> hv then ok := false;
        now := hk
      in
      for _ = 1 to nops do
        match Rng.int rng 10 with
        | 0 ->
          let key = !now +. (float_of_int (Rng.int rng 8) *. 1.6e-5) in
          for _ = 1 to 100 + Rng.int rng 901 do
            push key
          done
        | 1 | 2 -> push !now
        | 3 -> push (!now +. 0.096 +. (float_of_int (Rng.int rng 4) *. 6.4e-6))
        | 4 | 5 -> push (!now +. (float_of_int (Rng.int rng 40) *. 6.4e-6))
        | _ ->
          for _ = 1 to 1 + Rng.int rng 200 do
            if not (Wheel.is_empty w) then pop_both ()
          done
      done;
      while not (Wheel.is_empty w) do
        pop_both ()
      done;
      !ok && Heap.is_empty h)

let test_wheel_same_instant_burst () =
  (* 1000 events on one instant, with earlier and later keys of the same
     64 us slot pushed in between: pops come out in (key, push order) *)
  let w = Wheel.create () in
  let t0 = 0.03 in
  let pushed = ref [] and n = ref 0 in
  let push key =
    Wheel.push w ~key !n;
    pushed := (key, !n) :: !pushed;
    incr n
  in
  for i = 0 to 999 do
    push t0;
    if i mod 50 = 0 then push (t0 -. (float_of_int (i / 50 + 1) *. 1e-6));
    if i mod 70 = 0 then push (t0 +. (float_of_int (i / 70 + 1) *. 1e-6))
  done;
  let expected = List.map snd (List.sort compare !pushed) in
  let rec drain acc =
    if Wheel.is_empty w then List.rev acc else drain (Wheel.pop_top w :: acc)
  in
  Alcotest.(check (list int)) "(key, seq) order" expected (drain [])

(* --- engine -------------------------------------------------------------- *)

let test_engine_ordering () =
  let e = Engine.create Engine.Config.default in
  let log = ref [] in
  Engine.schedule_in e (Time.secs 0.3) (fun () -> log := 3 :: !log);
  Engine.schedule_in e (Time.secs 0.1) (fun () -> log := 1 :: !log);
  Engine.schedule_in e (Time.secs 0.2) (fun () -> log := 2 :: !log);
  Engine.run_until e (Time.secs 1.);
  Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (List.rev !log);
  check_close "clock at horizon" 1. (Time.to_secs (Engine.now e))

let test_engine_horizon () =
  let e = Engine.create Engine.Config.default in
  let fired = ref false in
  Engine.schedule_in e (Time.secs 5.) (fun () -> fired := true);
  Engine.run_until e (Time.secs 1.);
  Alcotest.(check bool) "beyond horizon not fired" false !fired;
  Alcotest.(check int) "still pending" 1 (Engine.pending e);
  Engine.run_until e (Time.secs 10.);
  Alcotest.(check bool) "fires later" true !fired

let test_engine_every () =
  let e = Engine.create Engine.Config.default in
  let count = ref 0 in
  Engine.every e ~dt:(Time.secs 0.5) ~until:(Time.secs 2.9) (fun () -> incr count);
  Engine.run_until e (Time.secs 10.);
  (* first at 0.5, then 1.0 .. 2.5: stops once the next tick exceeds until *)
  Alcotest.(check int) "periodic fires" 5 !count

let test_engine_rejects_past () =
  let e = Engine.create Engine.Config.default in
  Engine.schedule_in e (Time.secs 1.) (fun () -> ());
  Engine.run_until e (Time.secs 1.);
  Alcotest.(check bool) "past raises" true
    (try
       Engine.schedule_at e (Time.secs 0.5) (fun () -> ());
       false
     with Invalid_argument _ -> true)

let test_engine_rejects_non_finite () =
  let e = Engine.create Engine.Config.default in
  let raises name f =
    Alcotest.(check bool) name true
      (try
         f ();
         false
       with Invalid_argument _ -> true)
  in
  raises "schedule_at nan" (fun () ->
      Engine.schedule_at e (Time.secs nan) (fun () -> ()));
  raises "schedule_at +inf" (fun () ->
      Engine.schedule_at e (Time.secs infinity) (fun () -> ()));
  raises "schedule_in nan" (fun () ->
      Engine.schedule_in e (Time.secs nan) (fun () -> ()));
  raises "schedule_in -inf" (fun () ->
      Engine.schedule_in e (Time.secs neg_infinity) (fun () -> ()));
  raises "every nan dt" (fun () ->
      Engine.every e ~dt:(Time.secs nan) (fun () -> ()));
  (* the queue must still be usable after the rejections *)
  let hit = ref false in
  Engine.schedule_in e (Time.secs 1.) (fun () -> hit := true);
  Engine.run_until e (Time.secs 2.);
  Alcotest.(check bool) "engine survives" true !hit

let test_engine_nested_schedule () =
  let e = Engine.create Engine.Config.default in
  let hits = ref [] in
  Engine.schedule_in e (Time.secs 1.) (fun () ->
      hits := Time.to_secs (Engine.now e) :: !hits;
      Engine.schedule_in e (Time.secs 1.) (fun () -> hits := Time.to_secs (Engine.now e) :: !hits));
  Engine.run_until e (Time.secs 5.);
  Alcotest.(check (list (float 1e-9))) "nested" [ 1.; 2. ] (List.rev !hits)

(* Events of both kinds, at one instant, run in the order they were
   scheduled, and a leg carries its own packet. *)
let test_engine_packet_legs_in_order () =
  let e = Engine.create Engine.Config.default in
  let seen = ref [] in
  let leg (p : Packet.t) = seen := Packet.seq p :: !seen in
  let pkt seq = Packet.make ~flow:0 ~seq ~size:1500 ~now:Time.zero () in
  Engine.schedule_pkt_in e (Time.ms 1.) leg (pkt 0);
  Engine.schedule_in e (Time.ms 1.) (fun () -> seen := 100 :: !seen);
  Engine.schedule_pkt_in e (Time.ms 1.) leg (pkt 1);
  Engine.schedule_pkt_in e (Time.us 500.) leg (pkt 2);
  Engine.run_until e (Time.secs 1.);
  Alcotest.(check (list int)) "pop order" [ 2; 0; 100; 1 ] (List.rev !seen);
  Alcotest.(check bool) "a negative delay is rejected" true
    (match Engine.schedule_pkt_in e (Time.ms (-1.)) leg (pkt 3) with
     | () -> false
     | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "Packet.none is rejected" true
    (match Engine.schedule_pkt_in e (Time.ms 1.) leg Packet.none with
     | () -> false
     | exception Invalid_argument _ -> true)

(* A chain of events 12 µs apart, each scheduling a second event 1 ms
   ahead: the two streams share every slot they pass, so a slot is
   compacted about once per visit.  Compaction took the key as a float
   argument, boxing it: 2 words per slot visit, 7814 words per simulated
   second here. *)
let test_engine_shared_slots_allocate_nothing () =
  let e = Engine.create Engine.Config.default in
  let step = Time.us 12. and ahead = Time.ms 1. in
  let rec chain () =
    Engine.schedule_in e step chain;
    Engine.schedule_in e ahead ignore
  in
  Engine.schedule_in e step chain;
  let warm = Time.secs 1. and stop = Time.secs 2. in
  Engine.run_until e warm;
  let before = Gc.minor_words () in
  Engine.run_until e stop;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.)) "minor words over 1 s of events" 0. words

(* minor words per event, over 10 000 events scheduled 300 µs ahead (within
   the wheel's horizon) after warm-up batches.  Each batch moves the clock
   by half the wheel (128 slots of 256 µs), so batches reuse the two slots
   that have grown to hold one: a batch in a fresh slot would measure that
   slot's growth instead. *)
let engine_words_per_event schedule =
  let e = Engine.create Engine.Config.default in
  let step = Time.us 32_768. in
  let batch () =
    for _ = 1 to 1000 do
      schedule e
    done;
    Engine.run_until e (Time.add (Engine.now e) step)
  in
  for _ = 1 to 3 do
    batch ()
  done;
  let before = Gc.minor_words () in
  for _ = 1 to 10 do
    batch ()
  done;
  (Gc.minor_words () -. before) /. 10_000.

(* Queued events sit in recycled cells and the drain loop passes keys
   through the queue's key register, so with the handler, the packet and
   the delay made beforehand, an event allocates nothing: a packet leg
   builds no closure, and a thunk made once is reused.  (Only each batch's
   own horizon arithmetic allocates, 4 words per 1000 events.) *)
let test_engine_events_allocate_nothing () =
  let delay = Time.us 300. in
  let pkt = Packet.make ~flow:0 ~seq:0 ~size:1500 ~now:Time.zero () in
  let leg (_ : Packet.t) = () and thunk () = () in
  List.iter
    (fun (what, words) ->
      if words > 0.01 then
        Alcotest.failf "%s: %.4f minor words per event (want ~0)" what words)
    [ ( "schedule_pkt_in",
        engine_words_per_event (fun e -> Engine.schedule_pkt_in e delay leg pkt)
      );
      ("schedule_in", engine_words_per_event (fun e -> Engine.schedule_in e delay thunk))
    ]

(* --- rng ----------------------------------------------------------------- *)

(* The state moved from a boxed [int64] field into 8 bytes; the streams did
   not move.  The first eight draws of seed 42, recorded before the move. *)
let test_rng_pinned_draws () =
  let r = Rng.create 42 in
  List.iter
    (fun x -> Alcotest.(check int64) "bits" x (Rng.bits r))
    [ 0x989b3f130a063869L; 0x290db4bf2570ded7L; 0x2a990be63a01b2d5L;
      0xc4b6b24ef01890eL; 0xfb16a06e52ec10a7L; 0x3c30fc5fd50692c3L;
      0x4782c4b4c4fdf7c9L; 0x272404a0a3926552L ];
  let r = Rng.create 42 in
  List.iter
    (fun x ->
      Alcotest.(check int64) "uniform bits" (Int64.bits_of_float x)
        (Int64.bits_of_float (Rng.uniform r)))
    [ 0x1.31367e26140c7p-1; 0x1.486da5f92b86cp-3; 0x1.54c85f31d00d8p-3;
      0x1.896d649de031p-5; 0x1.f62d40dca5d82p-1; 0x1.e187e2fea8348p-3;
      0x1.1e0b12d313f7cp-2; 0x1.392025051c93p-3 ]

(* PIE draws [Rng.bool] per packet; a draw boxes nothing *)
let test_rng_bool_allocates_nothing () =
  let r = Rng.create 7 in
  let hits = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    if Rng.bool r ~p:0.5 then incr hits
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.)) "minor words over 10k draws" 0. words;
  Alcotest.(check bool) "draws vary" true (!hits > 4000 && !hits < 6000)

(* A probability computed per draw and passed as [~p] from another module
   is boxed, two words per draw; [bool_at] reads it in place and draws
   exactly what [bool] draws. *)
let test_rng_bool_at_computed_probability () =
  let a = Rng.create 11 and b = Rng.create 11 in
  let ps = Float.Array.make 1 0. in
  let same = ref true in
  let before = Gc.minor_words () in
  for i = 1 to 10_000 do
    Float.Array.unsafe_set ps 0 (float_of_int i *. 1e-4);
    if Rng.bool_at a ps 0 <> Rng.bool b ~p:(Float.Array.get ps 0) then
      same := false
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "bool_at draws what bool draws" true !same;
  (* every word is [bool]'s boxed [~p]: two per draw *)
  Alcotest.(check (float 0.)) "minor words over 10k draws of each" 20_000.
    words

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    if Rng.bits a <> Rng.bits b then Alcotest.fail "same seed diverges"
  done

let test_rng_split_independent () =
  let a = Rng.create 42 in
  let c = Rng.split a in
  let x = Rng.bits a and y = Rng.bits c in
  Alcotest.(check bool) "different streams" true (x <> y)

let test_rng_uniform_range () =
  let r = Rng.create 5 in
  for _ = 1 to 1000 do
    let u = Rng.uniform r in
    if u < 0. || u >= 1. then Alcotest.fail "uniform out of range"
  done

let test_rng_exponential_mean () =
  let r = Rng.create 6 in
  let n = 20000 in
  let reg = Float.Array.make 1 0. in
  let acc = ref 0. in
  for _ = 1 to n do
    Rng.exponential_to r ~mean:2.5 reg;
    acc := !acc +. Float.Array.get reg 0
  done;
  let mean = !acc /. float_of_int n in
  if Float.abs (mean -. 2.5) > 0.1 then
    Alcotest.failf "exponential mean %.3f != 2.5" mean

let test_rng_bool_probability () =
  let r = Rng.create 7 in
  let n = 20000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Rng.bool r ~p:0.3 then incr hits
  done;
  let frac = float_of_int !hits /. float_of_int n in
  if Float.abs (frac -. 0.3) > 0.02 then Alcotest.failf "p=0.3 got %.3f" frac

let test_rng_pareto_minimum () =
  let r = Rng.create 8 in
  let reg = Float.Array.make 1 0. in
  for _ = 1 to 1000 do
    Rng.pareto_to r ~shape:1.3 ~scale:100. reg;
    if Float.Array.get reg 0 < 100. then
      Alcotest.fail "pareto below scale"
  done

let prop_rng_int_bound =
  QCheck.Test.make ~count:100 ~name:"rng: int respects bound"
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let r = Rng.create seed in
      let v = Rng.int r bound in
      v >= 0 && v < bound)

(* --- packet -------------------------------------------------------------- *)

(* A packet carries no timestamps; when it leaves the link is what a sink
   recording [Engine.now] sees. *)
let test_packet_fields () =
  let p = Packet.make ~flow:3 ~seq:7 ~size:1500 ~now:(Time.secs 2.5) () in
  Alcotest.(check int) "flow" 3 (Packet.flow p);
  Alcotest.(check int) "seq" 7 (Packet.seq p);
  Alcotest.(check int) "size" 1500 (Packet.size p);
  Alcotest.(check int) "Packet.none has flow -1" (-1) (Packet.flow Packet.none);
  let e = Engine.create Engine.Config.default in
  let bn =
    Bottleneck.create e
      (Bottleneck.Config.default ~rate:(Rate.bps 12e6)
         ~qdisc:(Qdisc.droptail ~capacity_bytes:1_000_000))
  in
  let left = ref [] in
  Bottleneck.set_sink bn ~flow:3 (fun q ->
      left := (Packet.seq q, Time.to_secs (Engine.now e)) :: !left);
  Engine.schedule_at e (Time.secs 2.5) (fun () -> Bottleneck.enqueue bn p);
  Engine.run_until e (Time.secs 3.);
  (* one 1500-byte serialisation at 12 Mbit/s: 1 ms after it arrived *)
  match !left with
  | [ (7, at) ] -> check_close ~eps:1e-12 "left the link at" 2.501 at
  | _ -> Alcotest.fail "expected exactly packet 7 to leave the link"

(* The layout's limits: 20 bits of flow, 28 of seq, 14 of size. *)
let max_flow = 1_048_575 and max_seq = 268_435_455 and max_size = 16_383

let packet_field hi =
  QCheck.Gen.(frequency [ (1, return 0); (1, return hi); (8, int_range 0 hi) ])

let prop_packet_round_trip =
  QCheck.Test.make ~count:1000 ~name:"packet: fields read back, bounds included"
    (QCheck.make
       QCheck.Gen.(
         triple (packet_field max_flow) (packet_field max_seq)
           (packet_field max_size)))
    (fun (flow, seq, size) ->
      let p = Packet.make ~flow ~seq ~size ~now:Time.zero () in
      Packet.flow p = flow && Packet.seq p = seq && Packet.size p = size
      && p <> Packet.none)

let test_packet_rejects_out_of_range () =
  List.iter
    (fun (what, flow, seq, size) ->
      match Packet.make ~flow ~seq ~size ~now:Time.zero () with
      | _ -> Alcotest.failf "%s: accepted" what
      | exception Invalid_argument _ -> ())
    [ ("flow one past", max_flow + 1, 0, 1500);
      ("seq one past", 0, max_seq + 1, 1500);
      ("size one past", 0, 0, max_size + 1);
      ("negative flow", -1, 0, 1500); ("negative seq", 0, -1, 1500);
      ("negative size", 0, 0, -1); ("min_int flow", min_int, 0, 1500);
      ("max_int seq", 0, max_int, 1500) ]

(* A packet is an immediate int, so making one, queueing it on a link,
   serialising it, handing it to the sink and scheduling it on a packet leg
   allocate nothing.  Each batch enqueues 1000 packets, made inside the
   measured loop, on a 1 Gbit/s link; the sink puts each on a 1 ms leg.
   Batches start half a wheel turn (128 slots of 256 µs) apart, so after
   warm-up they reuse the slots and the FIFO ring the first ones grew. *)
let test_packet_path_allocates_nothing () =
  let e = Engine.create Engine.Config.default in
  let bn =
    Bottleneck.create e
      (Bottleneck.Config.default ~rate:(Rate.gbps 1.)
         ~qdisc:(Qdisc.droptail ~capacity_bytes:10_000_000))
  in
  let landed = ref 0 and seq = ref 0 in
  let leg (_ : Packet.t) = incr landed in
  let delay = Time.ms 1. in
  Bottleneck.set_sink bn ~flow:0 (fun pkt ->
      Engine.schedule_pkt_in e delay leg pkt);
  let batch horizon =
    for _ = 1 to 1000 do
      Bottleneck.enqueue bn
        (Packet.make ~flow:0 ~seq:!seq ~size:1500 ~now:Time.zero ());
      incr seq
    done;
    Engine.run_until e horizon
  in
  (* boxed beforehand, in lists: read from a [Time.t array], which is a flat
     float array, a horizon would be boxed again *)
  let horizons k0 n =
    List.init n (fun i -> Time.us (32_768. *. float_of_int (k0 + i)))
  in
  let warm_up = horizons 1 3 and measured = horizons 4 10 in
  List.iter batch warm_up;
  let landed0 = !landed in
  let before = Gc.minor_words () in
  List.iter batch measured;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "10k packets crossed the link and the leg" 10_000
    (!landed - landed0);
  Alcotest.(check (float 0.)) "minor words over 10k packets" 0. words

(* --- qdisc --------------------------------------------------------------- *)

let test_droptail_capacity () =
  let q = Qdisc.droptail ~capacity_bytes:3000 in
  Alcotest.(check bool) "admit within" true
    (Qdisc.decide q ~now:Time.zero ~qlen_bytes:1500 ~pkt_size:1500
     = Qdisc.Admit);
  Alcotest.(check bool) "reject overflow" true
    (Qdisc.decide q ~now:Time.zero ~qlen_bytes:1501 ~pkt_size:1500
     = Qdisc.Drop);
  Alcotest.(check string) "name" "droptail" (Qdisc.name q)

let test_pie_drops_under_load () =
  let rng = Rng.create 3 in
  let q =
    Qdisc.pie ~capacity_bytes:1_000_000 ~target_delay:(Time.ms 15.)
      ~link_rate:(Rate.bps 48e6) ~rng
  in
  Alcotest.(check string) "name" "pie" (Qdisc.name q);
  (* sustained deep queue (~10x target) must start dropping *)
  let drops = ref 0 in
  for i = 1 to 4000 do
    let now = Time.ms (float_of_int i) in
    if Qdisc.decide q ~now ~qlen_bytes:900_000 ~pkt_size:1500 = Qdisc.Drop
    then incr drops
  done;
  Alcotest.(check bool) "pie drops under sustained load" true (!drops > 50)

let test_pie_spares_short_queue () =
  let rng = Rng.create 4 in
  let q =
    Qdisc.pie ~capacity_bytes:1_000_000 ~target_delay:(Time.ms 15.)
      ~link_rate:(Rate.bps 48e6) ~rng
  in
  let drops = ref 0 in
  for i = 1 to 2000 do
    let now = Time.ms (float_of_int i) in
    if Qdisc.decide q ~now ~qlen_bytes:3000 ~pkt_size:1500 = Qdisc.Drop then
      incr drops
  done;
  Alcotest.(check int) "no drops below target/2" 0 !drops

(* --- bottleneck ---------------------------------------------------------- *)

(* the sink records each packet with the instant it left the link *)
let drain_packets engine bn ~flow ~count ~size =
  let delivered = ref [] in
  Bottleneck.set_sink bn ~flow (fun p ->
      delivered := (p, Engine.now engine) :: !delivered);
  for seq = 0 to count - 1 do
    Bottleneck.enqueue bn
      (Packet.make ~flow ~seq ~size ~now:(Engine.now engine) ())
  done;
  delivered

let test_bottleneck_serialization_rate () =
  let e = Engine.create Engine.Config.default in
  let bn =
    Bottleneck.create e
      (Bottleneck.Config.default ~rate:(Rate.bps 12e6)
         ~qdisc:(Qdisc.droptail ~capacity_bytes:1_000_000))
  in
  let delivered = drain_packets e bn ~flow:0 ~count:10 ~size:1500 in
  Engine.run_until e (Time.secs 1.);
  Alcotest.(check int) "all delivered" 10 (List.length !delivered);
  (* 10 pkts * 1500 B * 8 / 12 Mbps = 10 ms *)
  let _, last_at = List.hd !delivered in
  check_close ~eps:1e-9 "last dequeue time" 0.01 (Time.to_secs last_at);
  check_close ~eps:1e-9 "busy time" 0.01 (Time.to_secs (Bottleneck.busy_time bn))

let test_bottleneck_fifo_order () =
  let e = Engine.create Engine.Config.default in
  let bn =
    Bottleneck.create e
      (Bottleneck.Config.default ~rate:(Rate.bps 10e6)
         ~qdisc:(Qdisc.droptail ~capacity_bytes:1_000_000))
  in
  let delivered = drain_packets e bn ~flow:0 ~count:20 ~size:1000 in
  Engine.run_until e (Time.secs 1.);
  let seqs = List.rev_map (fun (p, _) -> Packet.seq p) !delivered in
  Alcotest.(check (list int)) "fifo" (List.init 20 (fun i -> i)) seqs

let test_bottleneck_drops_at_capacity () =
  let e = Engine.create Engine.Config.default in
  let bn =
    Bottleneck.create e
      (Bottleneck.Config.default ~rate:(Rate.bps 1e6)
         ~qdisc:(Qdisc.droptail ~capacity_bytes:4500))
  in
  let _ = drain_packets e bn ~flow:0 ~count:10 ~size:1500 in
  (* capacity 3 pkts: 3 admitted instantly, 7 dropped *)
  Alcotest.(check int) "drops" 7 (Bottleneck.drops bn);
  check_close "queue delay" (4500. *. 8. /. 1e6) (Time.to_secs (Bottleneck.queue_delay bn))

let test_bottleneck_random_loss () =
  let e = Engine.create Engine.Config.default in
  let bn =
    Bottleneck.create e
      { (Bottleneck.Config.default ~rate:(Rate.bps 100e6)
           ~qdisc:(Qdisc.droptail ~capacity_bytes:10_000_000))
        with random_loss = Some (0.5, Rng.create 9) }
  in
  for seq = 0 to 999 do
    Bottleneck.enqueue bn (Packet.make ~flow:0 ~seq ~size:1500 ~now:Time.zero ())
  done;
  let d = Bottleneck.drops bn in
  Alcotest.(check bool) "about half dropped" true (d > 400 && d < 600)

let test_bottleneck_policer () =
  let e = Engine.create Engine.Config.default in
  let bn =
    Bottleneck.create e
      { (Bottleneck.Config.default ~rate:(Rate.bps 100e6)
           ~qdisc:(Qdisc.droptail ~capacity_bytes:10_000_000))
        with policer = Some (Rate.bps 8e6, 3000) }
  in
  (* burst of 10 packets at t=0: bucket holds 2, rest dropped *)
  for seq = 0 to 9 do
    Bottleneck.enqueue bn (Packet.make ~flow:0 ~seq ~size:1500 ~now:Time.zero ())
  done;
  Alcotest.(check int) "policed" 8 (Bottleneck.drops bn)

(* a 100 Mbit/s link policed to 8 Mbit/s with a 30 kB bucket, as
   [Path_model] polices a path *)
let policed_link e =
  let bn =
    Bottleneck.create e
      { (Bottleneck.Config.default ~rate:(Rate.bps 100e6)
           ~qdisc:(Qdisc.droptail ~capacity_bytes:10_000_000))
        with policer = Some (Rate.bps 8e6, 30_000) }
  in
  Bottleneck.set_sink bn ~flow:0 ignore;
  bn

(* The policer's verdict on 20 000 packets of random sizes offered at random
   instants (~12 Mbit/s against the 8 Mbit/s bucket rate), one character
   per packet, digested.  Recorded on the mixed-record policer that boxed
   its tokens: the float-only one must refill by the same float operations,
   so every verdict stays the same. *)
let test_bottleneck_policer_drop_sequence () =
  let e = Engine.create Engine.Config.default in
  let bn = policed_link e in
  let rng = Rng.create 5 in
  let verdicts = Buffer.create 20_000 in
  let at = ref 0. in
  for seq = 0 to 19_999 do
    at := !at +. (Rng.uniform rng *. 1e-3);
    let size = 40 + Rng.int rng 1461 in
    Engine.schedule_at e (Time.secs !at) (fun () ->
        let drops = Bottleneck.drops bn in
        Bottleneck.enqueue bn
          (Packet.make ~flow:0 ~seq ~size ~now:Time.zero ());
        Buffer.add_char verdicts
          (if Bottleneck.drops bn > drops then 'd' else 'a'))
  done;
  Engine.run_until e (Time.secs 20.);
  Alcotest.(check int) "every packet offered" 20_000 (Buffer.length verdicts);
  Alcotest.(check int) "policed" 4709 (Bottleneck.drops bn);
  Alcotest.(check string) "verdict sequence" "e401574fe307fff2857e21d827bf4231"
    (Digest.to_hex (Digest.string (Buffer.contents verdicts)))

(* A packet the policer admits, and one it drops, allocates nothing: the
   bucket is a record of floats only, refilled from the clock read in
   place.  Its tokens boxed in a mixed record, with the refill computed
   through [Engine.now], [Time.sub] and [Rate.volume] across modules, cost
   21 332 words here, ~10.7 per packet. *)
let test_bottleneck_policer_allocates_nothing () =
  let e = Engine.create Engine.Config.default in
  let bn = policed_link e in
  let pkt = Packet.make ~flow:0 ~seq:0 ~size:1500 ~now:Time.zero () in
  (* 24 Mbit/s offered: about one packet in three is admitted *)
  let step = Time.us 500. in
  let rec offer () =
    Bottleneck.enqueue bn pkt;
    Engine.schedule_in e step offer
  in
  Engine.schedule_in e step offer;
  Engine.run_until e (Time.secs 1.);
  let drops0 = Bottleneck.drops bn and sent0 = Bottleneck.delivered_packets bn in
  let before = Gc.minor_words () in
  Engine.run_until e (Time.secs 2.);
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "packets admitted and dropped" true
    (Bottleneck.drops bn - drops0 > 1000
     && Bottleneck.delivered_packets bn - sent0 > 500);
  Alcotest.(check (float 0.)) "minor words over 2000 policed packets" 0. words

let test_bottleneck_delivered_accounting () =
  let e = Engine.create Engine.Config.default in
  let bn =
    Bottleneck.create e
      (Bottleneck.Config.default ~rate:(Rate.bps 10e6)
         ~qdisc:(Qdisc.droptail ~capacity_bytes:1_000_000))
  in
  let _ = drain_packets e bn ~flow:5 ~count:4 ~size:1000 in
  Engine.run_until e (Time.secs 1.);
  Alcotest.(check int) "delivered bytes" 4000
    (Bottleneck.delivered_bytes bn ~flow:5);
  Alcotest.(check int) "other flow" 0 (Bottleneck.delivered_bytes bn ~flow:6)

let qtest = QCheck_alcotest.to_alcotest

let suite =
  [ ( "sim.heap",
      [ Alcotest.test_case "sorted pops" `Quick test_heap_sorted_pops;
        Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
        Alcotest.test_case "top_key/top_seq" `Quick test_heap_top;
        qtest prop_heap_sorts ] );
    ( "sim.wheel",
      [ Alcotest.test_case "sorted pops" `Quick test_wheel_sorted_pops;
        Alcotest.test_case "fifo across spill" `Quick
          test_wheel_fifo_across_spill;
        Alcotest.test_case "wraparound" `Quick test_wheel_wraparound;
        Alcotest.test_case "far timer pop allocates nothing" `Quick
          test_wheel_far_timer_pop_alloc;
        Alcotest.test_case "far timer push allocates nothing" `Quick
          test_wheel_far_timer_push_alloc;
        Alcotest.test_case "same-instant burst" `Quick
          test_wheel_same_instant_burst;
        qtest prop_wheel_matches_heap;
        qtest prop_wheel_dense_slots_match_heap ] );
    ( "sim.engine",
      [ Alcotest.test_case "ordering" `Quick test_engine_ordering;
        Alcotest.test_case "horizon" `Quick test_engine_horizon;
        Alcotest.test_case "every" `Quick test_engine_every;
        Alcotest.test_case "rejects past" `Quick test_engine_rejects_past;
        Alcotest.test_case "rejects non-finite" `Quick
          test_engine_rejects_non_finite;
        Alcotest.test_case "nested schedule" `Quick test_engine_nested_schedule;
        Alcotest.test_case "packet legs in order" `Quick
          test_engine_packet_legs_in_order;
        Alcotest.test_case "events allocate nothing" `Quick
          test_engine_events_allocate_nothing;
        Alcotest.test_case "streams sharing slots allocate nothing" `Quick
          test_engine_shared_slots_allocate_nothing ] );
    ( "sim.rng",
      [ Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "split independent" `Quick test_rng_split_independent;
        Alcotest.test_case "uniform range" `Quick test_rng_uniform_range;
        Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
        Alcotest.test_case "bool probability" `Quick test_rng_bool_probability;
        Alcotest.test_case "pareto minimum" `Quick test_rng_pareto_minimum;
        Alcotest.test_case "pinned draws of seed 42" `Quick
          test_rng_pinned_draws;
        Alcotest.test_case "bool allocates nothing" `Quick
          test_rng_bool_allocates_nothing;
        Alcotest.test_case "bool_at reads a computed probability in place"
          `Quick test_rng_bool_at_computed_probability;
        qtest prop_rng_int_bound ] );
    ( "sim.packet",
      [ Alcotest.test_case "fields" `Quick test_packet_fields;
        Alcotest.test_case "rejects out-of-range fields" `Quick
          test_packet_rejects_out_of_range;
        Alcotest.test_case "packet path allocates nothing" `Quick
          test_packet_path_allocates_nothing;
        qtest prop_packet_round_trip ] );
    ( "sim.qdisc",
      [ Alcotest.test_case "droptail capacity" `Quick test_droptail_capacity;
        Alcotest.test_case "pie drops under load" `Quick test_pie_drops_under_load;
        Alcotest.test_case "pie spares short queue" `Quick
          test_pie_spares_short_queue ] );
    ( "sim.bottleneck",
      [ Alcotest.test_case "serialization rate" `Quick
          test_bottleneck_serialization_rate;
        Alcotest.test_case "fifo order" `Quick test_bottleneck_fifo_order;
        Alcotest.test_case "drops at capacity" `Quick
          test_bottleneck_drops_at_capacity;
        Alcotest.test_case "random loss" `Quick test_bottleneck_random_loss;
        Alcotest.test_case "policer" `Quick test_bottleneck_policer;
        Alcotest.test_case "policer drop sequence pinned" `Quick
          test_bottleneck_policer_drop_sequence;
        Alcotest.test_case "policer allocates nothing" `Quick
          test_bottleneck_policer_allocates_nothing;
        Alcotest.test_case "delivered accounting" `Quick
          test_bottleneck_delivered_accounting ] ) ]
