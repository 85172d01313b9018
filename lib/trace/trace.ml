(* Event payloads live in two strided arrays rather than one array per
   field: slot [i] owns floats[5i .. 5i+4] (time, a, b, c, d) and
   ints[4i .. 4i+3] (kind, i1, i2, i3).  A record therefore touches two
   cache lines instead of nine, which is what keeps full-mask tracing of
   the 10 ms controller tick inside its overhead budget.

   Each emitter below fixes its event's kind code and which slots carry
   what; [write_line] is the one reader of that layout. *)
let fstride = 5

let istride = 4

type t = {
  mask : int;
  cap : int;
  floats : float array;
  ints : int array;
  mutable head : int;  (* index of oldest pending event *)
  mutable len : int;
  mutable dropped : int;
  mutable total : int;
  mutable out : output option;
}

and output = [ `Channel of out_channel | `Buffer of Buffer.t ]

let create ?(capacity = 65536) ~mask () =
  if capacity < 1 then invalid_arg "Trace.create: capacity must be >= 1";
  {
    mask;
    cap = capacity;
    floats = Array.make (capacity * fstride) 0.;
    ints = Array.make (capacity * istride) 0;
    head = 0;
    len = 0;
    dropped = 0;
    total = 0;
    out = None;
  }

let disabled =
  {
    mask = 0;
    cap = 0;
    floats = [||];
    ints = [||];
    head = 0;
    len = 0;
    dropped = 0;
    total = 0;
    out = None;
  }

let enabled t = t.mask <> 0
let[@inline] want t cat = t.mask land Event.cat_bit cat <> 0

let mask_all =
  List.fold_left (fun acc c -> acc lor Event.cat_bit c) 0 Event.cats

let parse_filter spec =
  let parts =
    String.split_on_char ',' spec
    |> List.map String.trim
    |> List.filter (fun s -> not (String.equal s ""))
  in
  if parts = [] then Error "empty trace filter"
  else
    List.fold_left
      (fun acc part ->
        Result.bind acc (fun mask ->
            if String.equal (String.lowercase_ascii part) "all" then
              Ok mask_all
            else
              match Event.cat_of_string part with
              | Some c -> Ok (mask lor Event.cat_bit c)
              | None ->
                Error
                  (Printf.sprintf
                     "unknown trace category %S (expected one of %s, or all)"
                     part
                     (String.concat ", "
                        (List.map Event.cat_to_string Event.cats)))))
      (Ok 0) parts

(* --- recording ------------------------------------------------------------- *)

(* One slot write per event; a full ring overwrites the oldest pending
   event and counts it as dropped.  Only scalar stores — no allocation. *)
let[@inline] record t bit ~kind ~now ~a ~b ~c ~d ~i1 ~i2 ~i3 =
  if t.mask land bit <> 0 then begin
    t.total <- t.total + 1;
    let i =
      if t.len < t.cap then begin
        let i = t.head + t.len in
        let i = if i >= t.cap then i - t.cap else i in
        t.len <- t.len + 1;
        i
      end
      else begin
        (* full: overwrite the oldest *)
        let i = t.head in
        t.head <- (if t.head + 1 >= t.cap then 0 else t.head + 1);
        t.dropped <- t.dropped + 1;
        i
      end
    in
    let fi = i * fstride and ii = i * istride in
    Array.unsafe_set t.floats fi now;
    Array.unsafe_set t.floats (fi + 1) a;
    Array.unsafe_set t.floats (fi + 2) b;
    Array.unsafe_set t.floats (fi + 3) c;
    Array.unsafe_set t.floats (fi + 4) d;
    Array.unsafe_set t.ints ii kind;
    Array.unsafe_set t.ints (ii + 1) i1;
    Array.unsafe_set t.ints (ii + 2) i2;
    Array.unsafe_set t.ints (ii + 3) i3
  end
[@@alloc_free]

let bit_engine = Event.cat_bit Event.Engine
let bit_packet = Event.cat_bit Event.Packet
let bit_bottleneck = Event.cat_bit Event.Bottleneck
let bit_fault = Event.cat_bit Event.Fault
let bit_flow = Event.cat_bit Event.Flow
let bit_detector = Event.cat_bit Event.Detector
let bit_spectrum = Event.cat_bit Event.Spectrum
let bit_pulse = Event.cat_bit Event.Pulse
let bit_mode = Event.cat_bit Event.Mode
let bit_election = Event.cat_bit Event.Election
let bit_invariant = Event.cat_bit Event.Invariant

(* Enumeration codes, and the JSONL string of each, indexed by code. *)
let mode_code : Event.mode -> int = function Delay -> 0 | Competitive -> 1
let mode_names = [| "delay"; "competitive" |]
let role_code : Event.role -> int = function Pulser -> 0 | Watcher -> 1
let role_names = [| "pulser"; "watcher" |]

let evidence_code : Event.evidence -> int = function
  | Eta -> 0
  | Heard_delay -> 1
  | Heard_competitive -> 2
  | Quiet -> 3
  | Lost -> 4
  | Won -> 5

let evidence_names =
  [| "eta"; "heard_delay"; "heard_competitive"; "quiet"; "lost"; "won" |]

let drop_reason_code : Event.drop_reason -> int = function
  | Queue_full -> 0
  | Policer -> 1
  | Random_loss -> 2
  | Modeled_loss -> 3

let drop_reason_names = [| "queue"; "policer"; "random"; "model" |]

let fault_kind_code : Event.fault_kind -> int = function
  | F_burst -> 0
  | F_loss_off -> 1
  | F_rate_step -> 2
  | F_outage -> 3
  | F_delay_step -> 4
  | F_jitter -> 5
  | F_ack_loss -> 6
  | F_ack_off -> 7
  | F_kill -> 8

let fault_kind_names =
  [| "burst"; "lossoff"; "step"; "flap"; "delay"; "jitter"; "acks";
     "acksoff"; "kill" |]

let control_kind_code : Event.control_kind -> int = function
  | C_extra_delay -> 0
  | C_ack_loss -> 1
  | C_ack_off -> 2
  | C_stop -> 3

let control_kind_names = [| "extra_delay"; "ack_loss"; "ack_off"; "stop" |]

(* One emitter per kind code; [kind_names] is indexed by that code. *)
let kind_names =
  [| "sched"; "pkt_enqueue"; "pkt_deliver"; "pkt_drop"; "rate_set";
     "loss_model"; "fault_fired"; "flow_control"; "z_tick"; "window";
     "pulse_phase"; "detection"; "mode_switch"; "elected"; "demoted";
     "keepalive"; "violation" |]

let sched t ~now ~at ~pending =
  record t bit_engine ~kind:0 ~now ~a:at ~b:0. ~c:0. ~d:0. ~i1:pending ~i2:0
    ~i3:0
[@@alloc_free]

let pkt_enqueue t ~now ~flow ~seq ~qlen =
  record t bit_packet ~kind:1 ~now ~a:0. ~b:0. ~c:0. ~d:0. ~i1:flow ~i2:seq
    ~i3:qlen

let pkt_deliver t ~now ~flow ~seq ~qdelay =
  record t bit_packet ~kind:2 ~now ~a:qdelay ~b:0. ~c:0. ~d:0. ~i1:flow
    ~i2:seq ~i3:0

let pkt_drop t ~now ~flow ~seq ~reason =
  record t bit_packet ~kind:3 ~now ~a:0. ~b:0. ~c:0. ~d:0. ~i1:flow ~i2:seq
    ~i3:(drop_reason_code reason)

let rate_set t ~now ~before ~after =
  record t bit_bottleneck ~kind:4 ~now ~a:before ~b:after ~c:0. ~d:0. ~i1:0
    ~i2:0 ~i3:0

let loss_model t ~now ~installed =
  record t bit_bottleneck ~kind:5 ~now ~a:0. ~b:0. ~c:0. ~d:0.
    ~i1:(if installed then 1 else 0)
    ~i2:0 ~i3:0

let fault_fired t ~now ~fault ~p1 ~p2 =
  record t bit_fault ~kind:6 ~now ~a:p1 ~b:p2 ~c:0. ~d:0.
    ~i1:(fault_kind_code fault)
    ~i2:0 ~i3:0

let flow_control t ~now ~flow ~control ~value =
  record t bit_flow ~kind:7 ~now ~a:value ~b:0. ~c:0. ~d:0. ~i1:flow
    ~i2:(control_kind_code control)
    ~i3:0

let z_tick t ~now ~z ~send ~recv ~base =
  record t bit_detector ~kind:8 ~now ~a:z ~b:send ~c:recv ~d:base ~i1:0 ~i2:0
    ~i3:0

let window t ~now ~eta ~zbar ~lo ~hi =
  record t bit_spectrum ~kind:9 ~now ~a:eta ~b:zbar ~c:lo ~d:hi ~i1:0 ~i2:0
    ~i3:0

let pulse_phase t ~now ~freq ~value =
  record t bit_pulse ~kind:10 ~now ~a:freq ~b:value ~c:0. ~d:0. ~i1:0 ~i2:0
    ~i3:0

let detection t ~now ~eta ~mode ~role ~evidence =
  record t bit_mode ~kind:11 ~now ~a:eta ~b:0. ~c:0. ~d:0.
    ~i1:(mode_code mode) ~i2:(role_code role) ~i3:(evidence_code evidence)

let mode_switch t ~now ~from_mode ~to_mode ~role =
  record t bit_mode ~kind:12 ~now ~a:0. ~b:0. ~c:0. ~d:0.
    ~i1:(mode_code from_mode) ~i2:(mode_code to_mode) ~i3:(role_code role)

let elected t ~now ~p =
  record t bit_election ~kind:13 ~now ~a:p ~b:0. ~c:0. ~d:0. ~i1:0 ~i2:0 ~i3:0

let demoted t ~now =
  record t bit_election ~kind:14 ~now ~a:0. ~b:0. ~c:0. ~d:0. ~i1:0 ~i2:0
    ~i3:0

let keepalive t ~now ~tone ~alive =
  record t bit_election ~kind:15 ~now ~a:tone ~b:0. ~c:0. ~d:0.
    ~i1:(if alive then 1 else 0)
    ~i2:0 ~i3:0

let violation t ~now ~rule =
  record t bit_invariant ~kind:16 ~now ~a:0. ~b:0. ~c:0. ~d:0. ~i1:rule ~i2:0
    ~i3:0

(* --- draining -------------------------------------------------------------- *)

let recorded t = t.len
let dropped t = t.dropped
let total t = t.total

let clear t =
  t.head <- 0;
  t.len <- 0

(* --- writing --------------------------------------------------------------- *)

let bpf = Printf.bprintf

(* Slot [i] as one JSONL object and its newline. *)
let write_line buf t i =
  let fi = i * fstride and ii = i * istride in
  let f k = Event.float_str t.floats.(fi + k) and n k = t.ints.(ii + k) in
  let kind = n 0 in
  bpf buf {|{"t":%s,"ev":"%s"|} (f 0) kind_names.(kind);
  begin
    match kind with
    | 0 -> bpf buf {|,"at":%s,"pending":%d|} (f 1) (n 1)
    | 1 -> bpf buf {|,"flow":%d,"seq":%d,"qlen":%d|} (n 1) (n 2) (n 3)
    | 2 -> bpf buf {|,"flow":%d,"seq":%d,"qdelay":%s|} (n 1) (n 2) (f 1)
    | 3 ->
      bpf buf {|,"flow":%d,"seq":%d,"reason":"%s"|} (n 1) (n 2)
        drop_reason_names.(n 3)
    | 4 -> bpf buf {|,"before":%s,"after":%s|} (f 1) (f 2)
    | 5 -> bpf buf {|,"installed":%b|} (n 1 <> 0)
    | 6 ->
      bpf buf {|,"fault":"%s","p1":%s,"p2":%s|} fault_kind_names.(n 1) (f 1)
        (f 2)
    | 7 ->
      bpf buf {|,"flow":%d,"control":"%s","value":%s|} (n 1)
        control_kind_names.(n 2) (f 1)
    | 8 ->
      bpf buf {|,"z":%s,"send":%s,"recv":%s,"base":%s|} (f 1) (f 2) (f 3)
        (f 4)
    | 9 ->
      bpf buf {|,"eta":%s,"zbar":%s,"lo":%s,"hi":%s|} (f 1) (f 2) (f 3) (f 4)
    | 10 -> bpf buf {|,"freq":%s,"value":%s|} (f 1) (f 2)
    | 11 ->
      bpf buf {|,"eta":%s,"mode":"%s","role":"%s","evidence":"%s"|} (f 1)
        mode_names.(n 1) role_names.(n 2) evidence_names.(n 3)
    | 12 ->
      bpf buf {|,"from":"%s","to":"%s","role":"%s"|} mode_names.(n 1)
        mode_names.(n 2) role_names.(n 3)
    | 13 -> bpf buf {|,"p":%s|} (f 1)
    | 15 -> bpf buf {|,"tone":%s,"alive":%b|} (f 1) (n 1 <> 0)
    | 16 -> bpf buf {|,"rule":%d|} (n 1)
    | _ -> (* 14, demoted: no payload *) ()
  end;
  Buffer.add_string buf "}\n"

let attach t out = t.out <- Some out

(* A channel gets its lines through a page-sized staging buffer, so a flush
   of a full ring never holds the whole batch in memory. *)
let flush t =
  match t.out with
  | None -> ()
  | Some out ->
    let buf, spill =
      match out with
      | `Buffer buf -> (buf, fun () -> ())
      | `Channel oc ->
        let buf = Buffer.create 8192 in
        ( buf,
          fun () ->
            Buffer.output_buffer oc buf;
            Buffer.clear buf )
    in
    for k = 0 to t.len - 1 do
      let i = t.head + k in
      write_line buf t (if i >= t.cap then i - t.cap else i);
      if Buffer.length buf > 4096 then spill ()
    done;
    spill ();
    clear t

let close t =
  flush t;
  (match t.out with Some (`Channel oc) -> close_out oc | _ -> ());
  t.out <- None

(* --- reading --------------------------------------------------------------- *)

(* A deliberately small JSONL reader: trace files are ones [flush] wrote, so
   a field scanner beats a JSON dependency.  [field line pat] is the raw
   text after the first [pat] (a quoted key and its colon), up to the next
   ',' or '}'. *)
let field line pat =
  let len = String.length line and plen = String.length pat in
  let rec at i j =
    j = plen || (Char.equal line.[i + j] pat.[j] && at i (j + 1))
  in
  let rec find i =
    if i + plen > len then None
    else if at i 0 then Some (i + plen)
    else find (i + 1)
  in
  Option.map
    (fun start ->
      let stop = ref start in
      while
        !stop < len && (match line.[!stop] with ',' | '}' -> false | _ -> true)
      do
        incr stop
      done;
      String.sub line start (!stop - start))
    (find 0)

let unquote s =
  let n = String.length s in
  if n >= 2 && Char.equal s.[0] '"' && Char.equal s.[n - 1] '"' then
    Some (String.sub s 1 (n - 2))
  else None

let is_notable = function
  | "mode_switch" | "detection" | "elected" | "demoted" | "violation"
  | "fault_fired" ->
    true
  | _ -> false

(* [(time, name)] of a whole trace record, or [None]. *)
let record_of line =
  let l = String.trim line in
  match
    ( String.starts_with ~prefix:"{" l && String.ends_with ~suffix:"}" l,
      Option.bind (field line {|"t":|}) float_of_string_opt,
      Option.bind (field line {|"ev":|}) unquote )
  with
  | true, Some time, Some name -> Some (time, name)
  | _ -> None

let not_a_trace lineno =
  Error
    (Printf.sprintf
       "not a JSONL trace: line %d is not an object with a numeric \"t\" and \
        a string \"ev\""
       lineno)

(* One pass over the lines, keeping only the per-kind counts, the smallest
   and largest time, and the notable lines.  File order is not time order:
   the fault matrix concatenates per-case buffers that each restart at 0.  Every line [flush] writes ends in a
   newline, so a last line without one is a trace cut short. *)
let summarize ic =
  let counts = Hashtbl.create 17 in
  let events = ref 0 and lo = ref infinity and hi = ref neg_infinity in
  let notable = ref [] in
  let rec go lineno =
    let start = pos_in ic in
    match In_channel.input_line ic with
    | None -> Ok ()
    | Some line when pos_in ic - start = String.length line ->
      Error
        (Printf.sprintf "not a JSONL trace: line %d is cut short (no newline)"
           lineno)
    | Some line when String.equal (String.trim line) "" -> go (lineno + 1)
    | Some line -> (
      match record_of line with
      | None -> not_a_trace lineno
      | Some (time, name) ->
        incr events;
        lo := Float.min !lo time;
        hi := Float.max !hi time;
        Hashtbl.replace counts name
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts name));
        if is_notable name then notable := line :: !notable;
        go (lineno + 1))
  in
  Result.map
    (fun () ->
      let b = Buffer.create 1024 in
      bpf b "events: %d\n" !events;
      if !events > 0 then
        bpf b "span: %s .. %s s\n" (Event.float_str !lo)
          (Event.float_str !hi);
      List.iter
        (fun (name, n) -> bpf b "  %-14s %d\n" name n)
        (List.sort
           (fun (a, _) (b, _) -> String.compare a b)
           (Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts []));
      if !notable <> [] then begin
        Buffer.add_string b "notable:\n";
        List.iter (fun line -> bpf b "  %s\n" line) (List.rev !notable)
      end;
      Buffer.contents b)
    (go 1)

let summarize_file path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic -> (
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> try summarize ic with Sys_error msg -> Error msg))
