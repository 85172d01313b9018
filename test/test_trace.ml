(* lib/trace: ring semantics, the JSONL writer and reader, spans, and the
   end-to-end guarantees the tracing layer advertises — deterministic
   byte-identical JSONL for a given seed (whatever the pool size) and an
   allocation-free disabled path. *)

module Trace = Nimbus_trace.Trace
module Event = Nimbus_trace.Event
module Span = Nimbus_trace.Span
module Engine = Nimbus_sim.Engine
module Topology = Nimbus_topology.Topology
module Bottleneck = Nimbus_sim.Bottleneck
module Qdisc = Nimbus_sim.Qdisc
module Flow = Nimbus_cc.Flow
module Nimbus = Nimbus_core.Nimbus
module Z_estimator = Nimbus_core.Z_estimator
module Time = Units.Time
module Rate = Units.Rate

let contains_sub haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i =
    i + nl <= hl
    && (String.equal (String.sub haystack i nl) needle || go (i + 1))
  in
  nl = 0 || go 0

(* the JSONL lines [tr]'s pending events flush to *)
let flushed_lines tr =
  let buf = Buffer.create 1024 in
  Trace.attach tr (`Buffer buf);
  Trace.flush tr;
  List.filter
    (fun l -> not (String.equal l ""))
    (String.split_on_char '\n' (Buffer.contents buf))

let line_time line = Scanf.sscanf line {|{"t":%f,|} Fun.id

(* --- ring buffer ----------------------------------------------------------- *)

let test_ring_wraparound () =
  let tr = Trace.create ~capacity:4 ~mask:Trace.mask_all () in
  for i = 0 to 9 do
    Trace.z_tick tr ~now:(float_of_int i) ~z:1. ~send:2. ~recv:3. ~base:4.
  done;
  Alcotest.(check int) "recorded caps at capacity" 4 (Trace.recorded tr);
  Alcotest.(check int) "overwritten events counted" 6 (Trace.dropped tr);
  Alcotest.(check int) "total counts everything" 10 (Trace.total tr);
  Alcotest.(check (list (float 0.)))
    "keeps the newest events, oldest first" [ 6.; 7.; 8.; 9. ]
    (List.map line_time (flushed_lines tr))

let test_clear_keeps_counters () =
  let tr = Trace.create ~capacity:4 ~mask:Trace.mask_all () in
  for i = 0 to 5 do
    Trace.demoted tr ~now:(float_of_int i)
  done;
  Trace.clear tr;
  Alcotest.(check int) "ring empty" 0 (Trace.recorded tr);
  Alcotest.(check int) "dropped survives clear" 2 (Trace.dropped tr);
  Alcotest.(check int) "total survives clear" 6 (Trace.total tr)

let test_category_filter () =
  let mask = Event.cat_bit Event.Mode in
  let tr = Trace.create ~mask () in
  Alcotest.(check bool) "wants mode" true (Trace.want tr Event.Mode);
  Alcotest.(check bool) "filters detector" false
    (Trace.want tr Event.Detector);
  Trace.z_tick tr ~now:0. ~z:1. ~send:1. ~recv:1. ~base:1.;
  Trace.mode_switch tr ~now:1. ~from_mode:Event.Delay
    ~to_mode:Event.Competitive ~role:Event.Pulser;
  Alcotest.(check int) "only the mode event recorded" 1 (Trace.recorded tr);
  Alcotest.(check bool) "disabled records nothing" false
    (Trace.enabled Trace.disabled);
  Trace.elected Trace.disabled ~now:0. ~p:1.;
  Alcotest.(check int) "disabled stays empty" 0 (Trace.recorded Trace.disabled)

let test_parse_filter () =
  (match Trace.parse_filter "detector,mode" with
   | Ok mask ->
     Alcotest.(check int) "two categories"
       (Event.cat_bit Event.Detector lor Event.cat_bit Event.Mode)
       mask
   | Error e -> Alcotest.fail e);
  (match Trace.parse_filter "all" with
   | Ok mask -> Alcotest.(check int) "all" Trace.mask_all mask
   | Error e -> Alcotest.fail e);
  match Trace.parse_filter "detector,bogus" with
  | Ok _ -> Alcotest.fail "bogus category accepted"
  | Error _ -> ()

(* Reading a trace filter is total: on random specs built from category
   names in any case, [all], separators, blanks and random bytes,
   [parse_filter] never raises, and a mask it accepts is non-empty and
   reprints, as its category names, to a spec that parses to it again. *)
let prop_parse_filter_total =
  let names = List.map Event.cat_to_string Event.cats in
  let token =
    QCheck.Gen.(
      oneof
        [ oneofl names;
          map String.uppercase_ascii (oneofl names);
          oneofl
            [ "all"; "ALL"; "All"; ""; " "; "\t"; ","; "bogus"; "packets" ];
          string_size ~gen:char (int_range 0 4) ])
  in
  let spec =
    QCheck.Gen.(
      map
        (String.concat ",")
        (list_size (int_range 0 5)
           (map2
              (fun pad t -> pad ^ t ^ pad)
              (oneofl [ ""; " "; "  " ])
              token)))
  in
  QCheck.Test.make ~count:2000
    ~name:"trace: parse_filter is total and reprints"
    (QCheck.make ~print:(Printf.sprintf "%S") spec)
    (fun spec ->
      match Trace.parse_filter spec with
      | Error _ -> true
      | Ok mask ->
        let reprint =
          String.concat ","
            (List.filter_map
               (fun c ->
                 if mask land Event.cat_bit c <> 0 then
                   Some (Event.cat_to_string c)
                 else None)
               Event.cats)
        in
        mask <> 0
        && mask land lnot Trace.mask_all = 0
        && Trace.parse_filter reprint = Ok mask)

(* --- JSONL writer ---------------------------------------------------------- *)

(* Each emitter's exact line: its name, its fields in order, and floats in
   shortest round-trip form.  One emitter per line, in order. *)
let golden_lines =
  [ {|{"t":0.5,"ev":"sched","at":0.75,"pending":12}|};
    {|{"t":1,"ev":"pkt_enqueue","flow":1,"seq":42,"qlen":3000}|};
    {|{"t":1.1,"ev":"pkt_deliver","flow":1,"seq":42,"qdelay":0.0125}|};
    {|{"t":1.2,"ev":"pkt_drop","flow":2,"seq":7,"reason":"policer"}|};
    {|{"t":2,"ev":"rate_set","before":48,"after":0}|};
    {|{"t":2.1,"ev":"loss_model","installed":true}|};
    {|{"t":3,"ev":"fault_fired","fault":"burst","p1":0.05,"p2":0.4}|};
    {|{"t":3.5,"ev":"flow_control","flow":0,"control":"stop","value":0}|};
    {|{"t":4,"ev":"z_tick","z":23.75,"send":48,"recv":47.5,"base":24}|};
    {|{"t":5,"ev":"window","eta":2.25,"zbar":20,"lo":0.5,"hi":3}|};
    {|{"t":5.1,"ev":"pulse_phase","freq":5,"value":6}|};
    {|{"t":6,"ev":"detection","eta":0.75,"mode":"delay","role":"watcher","evidence":"quiet"}|};
    {|{"t":6.5,"ev":"mode_switch","from":"delay","to":"competitive","role":"pulser"}|};
    {|{"t":7,"ev":"elected","p":0.125}|};
    {|{"t":7.5,"ev":"demoted"}|};
    {|{"t":8,"ev":"keepalive","tone":1.5,"alive":true}|};
    {|{"t":9,"ev":"violation","rule":3}|} ]

let emit_one_of_each tr =
  Trace.sched tr ~now:0.5 ~at:0.75 ~pending:12;
  Trace.pkt_enqueue tr ~now:1. ~flow:1 ~seq:42 ~qlen:3000;
  Trace.pkt_deliver tr ~now:1.1 ~flow:1 ~seq:42 ~qdelay:0.0125;
  Trace.pkt_drop tr ~now:1.2 ~flow:2 ~seq:7 ~reason:Event.Policer;
  Trace.rate_set tr ~now:2. ~before:48. ~after:0.;
  Trace.loss_model tr ~now:2.1 ~installed:true;
  Trace.fault_fired tr ~now:3. ~fault:Event.F_burst ~p1:0.05 ~p2:0.4;
  Trace.flow_control tr ~now:3.5 ~flow:0 ~control:Event.C_stop ~value:0.;
  Trace.z_tick tr ~now:4. ~z:23.75 ~send:48. ~recv:47.5 ~base:24.;
  Trace.window tr ~now:5. ~eta:2.25 ~zbar:20. ~lo:0.5 ~hi:3.;
  Trace.pulse_phase tr ~now:5.1 ~freq:5. ~value:6.;
  Trace.detection tr ~now:6. ~eta:0.75 ~mode:Event.Delay ~role:Event.Watcher
    ~evidence:Event.Quiet;
  Trace.mode_switch tr ~now:6.5 ~from_mode:Event.Delay
    ~to_mode:Event.Competitive ~role:Event.Pulser;
  Trace.elected tr ~now:7. ~p:0.125;
  Trace.demoted tr ~now:7.5;
  Trace.keepalive tr ~now:8. ~tone:1.5 ~alive:true;
  Trace.violation tr ~now:9. ~rule:3

(* the string value of [key] in a JSONL line *)
let string_field key line =
  let pat = Printf.sprintf {|"%s":"|} key in
  let rec find i =
    if String.equal (String.sub line i (String.length pat)) pat then
      i + String.length pat
    else find (i + 1)
  in
  let start = find 0 in
  String.sub line start (String.index_from line start '"' - start)

(* Each emitter writes its golden line, and each enumeration value its
   string (one event per value, in declaration order). *)
let test_json_shape () =
  let tr = Trace.create ~mask:Trace.mask_all () in
  emit_one_of_each tr;
  Alcotest.(check (list string)) "one golden line per emitter" golden_lines
    (flushed_lines tr);
  let written key emit values =
    List.iter emit values;
    List.map (string_field key) (flushed_lines tr)
  in
  Alcotest.(check (list string)) "drop reasons"
    [ "queue"; "policer"; "random"; "model" ]
    (written "reason"
       (fun reason -> Trace.pkt_drop tr ~now:0. ~flow:0 ~seq:0 ~reason)
       Event.[ Queue_full; Policer; Random_loss; Modeled_loss ]);
  Alcotest.(check (list string)) "fault kinds"
    [ "burst"; "lossoff"; "step"; "flap"; "delay"; "jitter"; "acks";
      "acksoff"; "kill" ]
    (written "fault"
       (fun fault -> Trace.fault_fired tr ~now:0. ~fault ~p1:0. ~p2:0.)
       Event.
         [ F_burst; F_loss_off; F_rate_step; F_outage; F_delay_step;
           F_jitter; F_ack_loss; F_ack_off; F_kill ]);
  Alcotest.(check (list string)) "control kinds"
    [ "extra_delay"; "ack_loss"; "ack_off"; "stop" ]
    (written "control"
       (fun control -> Trace.flow_control tr ~now:0. ~flow:0 ~control ~value:0.)
       Event.[ C_extra_delay; C_ack_loss; C_ack_off; C_stop ]);
  Alcotest.(check (list string)) "evidence"
    [ "eta"; "heard_delay"; "heard_competitive"; "quiet"; "lost"; "won" ]
    (written "evidence"
       (fun evidence ->
         Trace.detection tr ~now:0. ~eta:0. ~mode:Event.Delay
           ~role:Event.Pulser ~evidence)
       Event.[ Eta; Heard_delay; Heard_competitive; Quiet; Lost; Won ]);
  (* the values golden_lines does not show, and non-finite floats *)
  Trace.mode_switch tr ~now:0. ~from_mode:Event.Competitive
    ~to_mode:Event.Delay ~role:Event.Watcher;
  Trace.detection tr ~now:0. ~eta:nan ~mode:Event.Competitive
    ~role:Event.Pulser ~evidence:Event.Won;
  Trace.loss_model tr ~now:0. ~installed:false;
  Trace.keepalive tr ~now:0. ~tone:neg_infinity ~alive:false;
  Alcotest.(check (list string)) "other modes, roles and booleans"
    [ {|{"t":0,"ev":"mode_switch","from":"competitive","to":"delay","role":"watcher"}|};
      {|{"t":0,"ev":"detection","eta":nan,"mode":"competitive","role":"pulser","evidence":"won"}|};
      {|{"t":0,"ev":"loss_model","installed":false}|};
      {|{"t":0,"ev":"keepalive","tone":-inf,"alive":false}|} ]
    (flushed_lines tr)

let test_float_str () =
  Alcotest.(check string) "short decimal" "0.1" (Event.float_str 0.1);
  Alcotest.(check string) "integer" "48" (Event.float_str 48.);
  Alcotest.(check string) "nan" "nan" (Event.float_str nan);
  Alcotest.(check string) "inf" "inf" (Event.float_str infinity);
  Alcotest.(check string) "-inf" "-inf" (Event.float_str neg_infinity);
  (* shortest-round-trip means parsing the output recovers the bits *)
  List.iter
    (fun x ->
      let s = Event.float_str x in
      if not (Float.equal (float_of_string s) x) then
        Alcotest.failf "%h does not round-trip through %S" x s)
    [ 0.1; 1. /. 3.; 1e-300; 6.02e23; -0.0125; Float.pi ]

(* --- outputs --------------------------------------------------------------- *)

let test_buffer_flush_close () =
  let tr = Trace.create ~capacity:8 ~mask:Trace.mask_all () in
  let buf = Buffer.create 256 in
  Trace.flush tr;
  Trace.elected tr ~now:1. ~p:0.5;
  Trace.flush tr;
  Alcotest.(check int) "no output: flush keeps events pending" 1
    (Trace.recorded tr);
  Trace.attach tr (`Buffer buf);
  Trace.demoted tr ~now:2.;
  Trace.flush tr;
  Alcotest.(check int) "ring drained" 0 (Trace.recorded tr);
  Alcotest.(check string) "both lines, oldest first"
    "{\"t\":1,\"ev\":\"elected\",\"p\":0.5}\n{\"t\":2,\"ev\":\"demoted\"}\n"
    (Buffer.contents buf);
  Trace.elected tr ~now:3. ~p:1.;
  Trace.close tr;
  Alcotest.(check int) "close flushes the rest" 3
    (List.length (String.split_on_char '\n' (Buffer.contents buf)) - 1);
  Trace.demoted tr ~now:4.;
  Trace.flush tr;
  Alcotest.(check int) "close detaches the buffer" 1 (Trace.recorded tr);
  Alcotest.(check int) "nothing written after close" 3
    (List.length (String.split_on_char '\n' (Buffer.contents buf)) - 1)

(* a full ring written through a channel comes out whole: every pending
   event, oldest first, past the channel's staging threshold *)
let test_channel_output () =
  let path = Filename.temp_file "nimtrace" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let tr = Trace.create ~capacity:500 ~mask:Trace.mask_all () in
  Trace.attach tr (`Channel (open_out_bin path));
  for i = 0 to 999 do
    Trace.z_tick tr ~now:(float_of_int i) ~z:1. ~send:2. ~recv:3. ~base:4.
  done;
  let expected = Buffer.create 4096 in
  let mirror = Trace.create ~capacity:500 ~mask:Trace.mask_all () in
  for i = 500 to 999 do
    Trace.z_tick mirror ~now:(float_of_int i) ~z:1. ~send:2. ~recv:3. ~base:4.
  done;
  Trace.attach mirror (`Buffer expected);
  Trace.flush mirror;
  Trace.close tr;
  Alcotest.(check string) "file holds the newest 500 lines"
    (Buffer.contents expected)
    (In_channel.with_open_bin path In_channel.input_all)

(* --- JSONL reader ---------------------------------------------------------- *)

let with_file contents f =
  let path = Filename.temp_file "nimtrace" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Out_channel.with_open_bin path (fun oc -> output_string oc contents);
  f path

let summarize contents = with_file contents Trace.summarize_file

(* a valid multi-line trace: one line of every kind *)
let sample_trace =
  let buf = Buffer.create 2048 in
  let tr = Trace.create ~mask:Trace.mask_all () in
  Trace.attach tr (`Buffer buf);
  emit_one_of_each tr;
  Trace.close tr;
  Buffer.contents buf

(* Every emitter's line reads back: its time to the bit, its kind, and
   the reader counts it once under that kind. *)
let test_emitters_roundtrip () =
  let lines =
    List.filter (fun l -> not (String.equal l ""))
      (String.split_on_char '\n' sample_trace)
  in
  let kinds =
    [ "sched"; "pkt_enqueue"; "pkt_deliver"; "pkt_drop"; "rate_set";
      "loss_model"; "fault_fired"; "flow_control"; "z_tick"; "window";
      "pulse_phase"; "detection"; "mode_switch"; "elected"; "demoted";
      "keepalive"; "violation" ]
  in
  Alcotest.(check (list (float 0.))) "times read back exactly"
    [ 0.5; 1.; 1.1; 1.2; 2.; 2.1; 3.; 3.5; 4.; 5.; 5.1; 6.; 6.5; 7.; 7.5;
      8.; 9. ]
    (List.map line_time lines);
  Alcotest.(check (list string)) "kinds read back in order" kinds
    (List.map (string_field "ev") lines);
  match summarize sample_trace with
  | Error e -> Alcotest.fail e
  | Ok summary ->
    Alcotest.(check bool) "reader counts every event" true
      (contains_sub summary "events: 17\nspan: 0.5 .. 9 s\n");
    List.iter
      (fun kind ->
        if not (contains_sub summary (Printf.sprintf "  %-14s 1\n" kind))
        then Alcotest.failf "summary does not count one %s:\n%s" kind summary)
      kinds

(* The fault matrix concatenates per-case buffers, each restarting at
   t = 0: the span is the smallest and largest time, not file order. *)
let test_summarize_concatenated_cases () =
  let case times =
    let buf = Buffer.create 256 in
    let tr = Trace.create ~mask:Trace.mask_all () in
    Trace.attach tr (`Buffer buf);
    List.iter
      (fun now -> Trace.z_tick tr ~now ~z:10. ~send:48. ~recv:47. ~base:24.)
      times;
    Trace.close tr;
    Buffer.contents buf
  in
  match summarize (case [ 0.01; 2.5; 7. ] ^ case [ 0.; 0.02; 3. ]) with
  | Error e -> Alcotest.fail e
  | Ok summary ->
    Alcotest.(check bool) "min .. max over both cases" true
      (contains_sub summary "events: 6\nspan: 0 .. 7 s\n")

let test_summarize_file () =
  let path = Filename.temp_file "nimtrace" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let tr = Trace.create ~mask:Trace.mask_all () in
  let oc = open_out_bin path in
  Trace.attach tr (`Channel oc);
  Trace.z_tick tr ~now:0.01 ~z:10. ~send:48. ~recv:47. ~base:24.;
  Trace.z_tick tr ~now:0.02 ~z:11. ~send:48. ~recv:47. ~base:24.;
  Trace.mode_switch tr ~now:0.03 ~from_mode:Event.Delay
    ~to_mode:Event.Competitive ~role:Event.Pulser;
  Trace.close tr;
  match Trace.summarize_file path with
  | Error e -> Alcotest.fail e
  | Ok summary ->
    Alcotest.(check string) "summary"
      "events: 3\n\
       span: 0.01 .. 0.03 s\n\
      \  mode_switch    1\n\
      \  z_tick         2\n\
       notable:\n\
      \  {\"t\":0.03,\"ev\":\"mode_switch\",\"from\":\"delay\",\"to\":\"competitive\",\"role\":\"pulser\"}\n"
      summary

(* Every byte-truncation of a whole trace: a cut at a line boundary is a
   shorter whole trace, and a cut anywhere else is an [Error] — including
   the cut just before a newline, which leaves a complete-looking object. *)
let test_truncations () =
  let n = String.length sample_trace in
  for len = 0 to n do
    let cut = String.sub sample_trace 0 len in
    let at_boundary = len = 0 || Char.equal sample_trace.[len - 1] '\n' in
    match summarize cut with
    | Ok _ when not at_boundary ->
      Alcotest.failf "cut at byte %d/%d summarized as a whole trace" len n
    | Error e when at_boundary ->
      Alcotest.failf "cut at line boundary %d/%d rejected: %s" len n e
    | Ok _ | Error _ -> ()
    | exception exn ->
      Alcotest.failf "cut at byte %d/%d raised %s" len n
        (Printexc.to_string exn)
  done;
  (match summarize "{\"t\":1,\"ev\":\"demoted\"}" with
   | Error e ->
     Alcotest.(check bool) "error names the line" true
       (contains_sub e "line 1")
   | Ok _ -> Alcotest.fail "last line with no newline accepted");
  match Trace.summarize_file (Filename.get_temp_dir_name ()) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a directory summarized as a trace"
  | exception exn ->
    Alcotest.failf "a directory raised %s" (Printexc.to_string exn)

let total contents =
  match summarize contents with
  | Ok _ | Error _ -> true
  | exception exn ->
    QCheck.Test.fail_reportf "raised %s" (Printexc.to_string exn)

let prop_byte_flips =
  QCheck.Test.make ~count:300 ~name:"summarize: byte flips"
    QCheck.(
      pair (int_bound (String.length sample_trace - 1)) (int_range 0 255))
    (fun (pos, byte) ->
      total
        (String.mapi
           (fun i c -> if i = pos then Char.chr byte else c)
           sample_trace))

let prop_random_bytes =
  QCheck.Test.make ~count:300 ~name:"summarize: random bytes"
    QCheck.(string_gen_of_size Gen.(int_bound 300) Gen.char)
    total

(* --- Flow.apply ------------------------------------------------------------ *)

let make_link ?(trace = Trace.disabled) () =
  let e = Engine.create { trace } in
  let topo, route =
    Topology.dumbbell e
      { bottleneck =
          { (Bottleneck.Config.default ~rate:(Rate.bps 48e6)
               ~qdisc:(Qdisc.droptail ~capacity_bytes:600_000))
            with trace };
        prop_delay = Time.zero }
  in
  (e, Topology.link_bottleneck (List.hd (Topology.links topo)), topo, route)

let test_flow_apply () =
  let tr = Trace.create ~mask:Trace.mask_all () in
  let _, _, topo, route = make_link ~trace:tr () in
  let f =
    Flow.create_via topo ~route ~cc:(Nimbus_cc.Cubic.make ())
      ~prop_rtt:(Time.ms 50.) ()
  in
  Flow.apply f (Flow.Control.Extra_delay (Time.ms 20.));
  Alcotest.(check (float 1e-9)) "extra delay applied" 0.02
    (Time.to_secs (Flow.extra_delay f));
  (try
     Flow.apply f (Flow.Control.Extra_delay (Time.secs nan));
     Alcotest.fail "non-finite extra delay accepted"
   with Invalid_argument _ -> ());
  Flow.apply f (Flow.Control.Ack_loss (Some (fun () -> false)));
  Flow.apply f (Flow.Control.Ack_loss None);
  Alcotest.(check bool) "running" false (Flow.stopped f);
  Flow.apply f Flow.Control.Stop;
  Alcotest.(check bool) "stopped" true (Flow.stopped f);
  (* each successful mutation left a flow_control event *)
  let controls =
    List.filter_map
      (fun l ->
        if contains_sub l {|"ev":"flow_control"|} then
          Some (string_field "control" l)
        else None)
      (flushed_lines tr)
  in
  Alcotest.(check (list string)) "four control events, in order"
    [ "extra_delay"; "ack_loss"; "ack_off"; "stop" ]
    controls

(* --- spans ----------------------------------------------------------------- *)

let test_span_aggregation () =
  let now = ref 0. in
  Span.reset ();
  Span.set_clock (fun () -> !now);
  Span.enable ();
  Fun.protect
    ~finally:(fun () ->
      Span.disable ();
      Span.set_clock Sys.time;
      Span.reset ())
  @@ fun () ->
  Span.enter Span.Fft;
  now := 0.25;
  Span.leave Span.Fft;
  Span.enter Span.Fft;
  now := 0.35;
  Span.leave Span.Fft;
  (* unbalanced leave: ignored *)
  Span.leave Span.Spectrum;
  match Span.stats () with
  | [ { Span.s_id = Span.Fft; s_count; s_total; s_max } ] ->
    Alcotest.(check int) "count" 2 s_count;
    Alcotest.(check (float 1e-9)) "total" 0.35 s_total;
    Alcotest.(check (float 1e-9)) "max" 0.25 s_max;
    let report = Span.report () in
    Alcotest.(check bool) "report names the span" true
      (contains_sub report "fft")
  | stats -> Alcotest.failf "unexpected stats (%d entries)" (List.length stats)

let test_span_disabled_noop () =
  Span.reset ();
  Span.enter Span.Fft;
  Span.leave Span.Fft;
  Alcotest.(check int) "nothing accrued while disabled" 0
    (List.length (Span.stats ()))

(* --- allocation ------------------------------------------------------------ *)

(* the acceptance bar: with tracing disabled the emit path allocates zero
   minor words.  Measured as a slope — the per-iteration delta between a
   1k-iteration and an 11k-iteration loop must be exactly zero, which
   cancels the constant cost of the Gc counter reads themselves. *)
let measure_disabled_emits n =
  let tr = Trace.disabled in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    if Trace.want tr Event.Detector then
      Trace.z_tick tr ~now:0. ~z:1. ~send:2. ~recv:3. ~base:4.;
    if Trace.want tr Event.Mode then
      Trace.mode_switch tr ~now:0. ~from_mode:Event.Delay
        ~to_mode:Event.Competitive ~role:Event.Pulser
  done;
  Gc.minor_words () -. w0

let test_disabled_zero_alloc () =
  ignore (measure_disabled_emits 1);
  let d1 = measure_disabled_emits 1_000 in
  let d2 = measure_disabled_emits 11_000 in
  Alcotest.(check (float 0.)) "0 minor words per disabled emit" 0. (d2 -. d1)

(* the enabled path stores into preallocated arrays: recording 10k events
   into a big ring must not grow with the event count either (the guard +
   emitter calls may box a bounded number of floats per call site, so this
   is asserted as a slope too, with the same tolerance: exactly equal) *)
let measure_enabled_emits tr n =
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    if Trace.want tr Event.Detector then
      Trace.z_tick tr ~now:0. ~z:1. ~send:2. ~recv:3. ~base:4.
  done;
  Gc.minor_words () -. w0

let test_enabled_steady_alloc () =
  let tr = Trace.create ~capacity:32768 ~mask:Trace.mask_all () in
  ignore (measure_enabled_emits tr 1);
  let d1 = measure_enabled_emits tr 1_000 in
  let d2 = measure_enabled_emits tr 1_000 in
  Alcotest.(check (float 0.)) "steady enabled emits don't grow the heap" 0.
    (d2 -. d1)

(* --- end-to-end determinism ------------------------------------------------ *)

(* the Fig. 7 scenario: one Nimbus flow on a 48 Mbit/s link, a Cubic flow
   joining at t = 20 s; the detector must switch delay -> competitive *)
let traced_scenario ~mask ~seed =
  let buf = Buffer.create 65536 in
  let tr = Trace.create ~mask () in
  Trace.attach tr (`Buffer buf);
  let e, _, topo, route = make_link ~trace:tr () in
  let nim =
    Nimbus.create
      { (Nimbus.Config.default ~mu:(Z_estimator.Mu.known (Rate.bps 48e6)))
        with seed; trace = tr }
  in
  let _flow =
    Flow.create_via topo ~route
      ~cc:(Nimbus.cc nim ~now:(fun () -> Engine.now e))
      ~prop_rtt:(Time.ms 50.) ()
  in
  Engine.schedule_at e (Time.secs 20.) (fun () ->
      ignore
        (Flow.create_via topo ~route ~cc:(Nimbus_cc.Cubic.make ())
           ~prop_rtt:(Time.ms 50.) ()));
  Engine.run_until e (Time.secs 32.);
  Trace.close tr;
  Buffer.contents buf

let test_trace_deterministic () =
  let run () = traced_scenario ~mask:Trace.mask_all ~seed:11 in
  let a = run () and b = run () in
  Alcotest.(check bool) "trace is non-trivial" true
    (String.length a > 1000);
  Alcotest.(check bool) "same seed, byte-identical JSONL" true
    (String.equal a b)

let test_golden_mode_switch () =
  let mask = Event.cat_bit Event.Mode in
  let jsonl = traced_scenario ~mask ~seed:11 in
  let lines =
    List.filter
      (fun l -> not (String.equal l ""))
      (String.split_on_char '\n' jsonl)
  in
  let switches =
    List.filter (fun l -> contains_sub l {|"ev":"mode_switch"|}) lines
  in
  (* golden shape: the run contains exactly one switch, delay->competitive,
     as the pulser, after the Cubic flow joins at t = 20 s *)
  (match switches with
   | [ line ] ->
     Alcotest.(check bool) "delay -> competitive as pulser" true
       (contains_sub line
          {|"ev":"mode_switch","from":"delay","to":"competitive","role":"pulser"}|});
     Scanf.sscanf line {|{"t":%f,|} (fun t ->
         Alcotest.(check bool) "switch happens after the join" true
           (t > 20. && t < 32.))
   | _ ->
     Alcotest.failf "expected exactly one mode switch, got %d"
       (List.length switches));
  (* every mode-category line carries a detection or switch *)
  List.iter
    (fun l ->
      if
        not
          (contains_sub l {|"ev":"detection"|}
          || contains_sub l {|"ev":"mode_switch"|})
      then Alcotest.failf "unexpected event in mode filter: %s" l)
    lines

(* the fault matrix collects per-case buffers and concatenates them in input
   order, so the trace bytes cannot depend on how many domains ran it *)
let test_matrix_trace_jobs_independent () =
  let trace_mask =
    Event.cat_bit Event.Mode lor Event.cat_bit Event.Fault
    lor Event.cat_bit Event.Invariant
  in
  let matrix_with_domains domains =
    Nimbus_parallel.Pool.run ~domains (fun pool ->
        Nimbus_experiments.Exp_faults.run_matrix ~trace_mask
          { Nimbus_experiments.Common.quick with pool = Some pool })
  in
  let seq = matrix_with_domains 1 in
  let par = matrix_with_domains 3 in
  Alcotest.(check bool) "traces are non-trivial" true
    (String.length seq.Nimbus_experiments.Exp_faults.traces > 100);
  Alcotest.(check bool) "--jobs 1 and --jobs 3 byte-identical" true
    (String.equal seq.Nimbus_experiments.Exp_faults.traces
       par.Nimbus_experiments.Exp_faults.traces)

let suite =
  [ ( "trace",
      [ Alcotest.test_case "ring wraparound + drop counting" `Quick
          test_ring_wraparound;
        Alcotest.test_case "clear keeps cumulative counters" `Quick
          test_clear_keeps_counters;
        Alcotest.test_case "category filtering" `Quick test_category_filter;
        Alcotest.test_case "parse_filter" `Quick test_parse_filter;
        QCheck_alcotest.to_alcotest prop_parse_filter_total;
        Alcotest.test_case "emitters round-trip" `Quick
          test_emitters_roundtrip;
        Alcotest.test_case "float_str shortest round-trip" `Quick
          test_float_str;
        Alcotest.test_case "json line shape" `Quick test_json_shape;
        Alcotest.test_case "buffer flush + close" `Quick
          test_buffer_flush_close;
        Alcotest.test_case "channel output: full ring" `Quick
          test_channel_output;
        Alcotest.test_case "summarize jsonl file" `Quick test_summarize_file;
        Alcotest.test_case "summarize: concatenated cases" `Quick
          test_summarize_concatenated_cases;
        Alcotest.test_case "summarize: truncations" `Quick test_truncations;
        QCheck_alcotest.to_alcotest prop_byte_flips;
        QCheck_alcotest.to_alcotest prop_random_bytes;
        Alcotest.test_case "Flow.apply controls + validation" `Quick
          test_flow_apply;
        Alcotest.test_case "span aggregation (fake clock)" `Quick
          test_span_aggregation;
        Alcotest.test_case "span disabled is a no-op" `Quick
          test_span_disabled_noop;
        Alcotest.test_case "disabled tracing allocates 0 minor words" `Quick
          test_disabled_zero_alloc;
        Alcotest.test_case "enabled steady path allocation-flat" `Quick
          test_enabled_steady_alloc;
        Alcotest.test_case "same seed, byte-identical JSONL" `Slow
          test_trace_deterministic;
        Alcotest.test_case "golden mode-switch trace (Fig. 7 join)" `Slow
          test_golden_mode_switch;
        Alcotest.test_case "fault-matrix trace independent of --jobs" `Slow
          test_matrix_trace_jobs_independent ] ) ]
