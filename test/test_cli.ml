(* The CLI's flag domains, end to end: each out-of-domain `simulate` value
   must be rejected with exit 2 before anything is built.  Unchecked, an
   infinite cross rate hangs the run, a NaN runs silently with no cross
   traffic or an empty timeline, and a non-positive link rate or negative
   RTT escapes as an uncaught exception (exit 125).  `parking` checks its
   rate and duration too: a negative rate escaped as an uncaught exception,
   and a NaN or negative duration printed an all-zero table and exited 0,
   which passes a smoke gate on garbage.  A link faster than 1 Gbit/s is
   rejected too: at 1e302 Mbit/s a 0.1 s `parking` run never finished.
   `sweep` rejects a NaN, infinite or negative budget, a negative
   `--stop-after` or `--triage-k` and an empty `--schemes=` (it ran the
   default schemes).  A property feeds every float flag adversarial
   spellings.  Every run is under a 60 s timeout, so a flag that
   hangs fails its case (exit 124) instead of the suite.  Likewise `trace`
   must exit 2 on a file that is not a whole trace, instead of summarizing
   garbage. *)

let cli = "../bin/nimbus_cli.exe"

(* [run args] runs the CLI with [args] under a 60 s timeout *)
let run args =
  Sys.command (Printf.sprintf "timeout 60 %s %s > /dev/null 2>&1" cli args)

(* a one-simulated-second run unless [args] sets its own duration *)
let simulate args =
  let has_duration =
    String.length args >= 10 && String.sub args 0 10 = "--duration"
  in
  run
    (Printf.sprintf "simulate %s%s" args
       (if has_duration then "" else " --duration 1"))

let rejected args () =
  Alcotest.(check int) (Printf.sprintf "simulate %s exits 2" args) 2
    (simulate args)

let bad_values =
  [ "--cross=cbr --cross-rate=inf";
    "--cross=poisson --cross-rate=nan";
    "--cross=cbr --cross-rate=-5";
    "--cross=poisson --cross-rate=1e308";
    "--cross=cbr --cross-rate=1e308";
    "--duration=nan";
    "--duration=-1";
    "--duration=inf";
    "--rate=nan";
    "--rate=0";
    "--rate=inf";
    (* finite in Mbit/s, infinite in the bits per second it is built in *)
    "--rate=1e308";
    (* faster than the fastest link anything builds (1 Gbit/s) *)
    "--rate=1001";
    "--cross=cbr --cross-rate=1001";
    "--rtt=nan";
    "--rtt=-10";
    "--rtt=inf";
    (* a zero RTT sizes the buffer, a multiple of the BDP, at zero bytes *)
    "--rtt=0";
    (* a packet time or a cross-traffic gap that overflows to infinity *)
    "--rate=1e-320";
    "--cross=poisson --cross-rate=1e-320";
    "--cross=cbr --cross-rate=1e-320";
    (* a run that never ends *)
    "--duration=1e308";
    (* not a number at all: cmdliner's parse error, exit 2 as well *)
    "--rate=1e";
    "--rate=";
    "--trace-filter=bogus" ]

let parking_rejected args () =
  Alcotest.(check int) (Printf.sprintf "parking %s exits 2" args) 2
    (run ("parking --links 2 --flows 2 " ^ args))

let bad_parking_values =
  [ "--rate=-5"; "--rate=nan"; "--rate=1e308"; "--rate=1001";
    (* finite in bits per second, and never finished *)
    "--rate=1e302 --duration=0.1"; "--duration=nan"; "--duration=-1";
    "--duration=inf"; "--rate=1e-320"; "--duration=1e308" ]

let sweep_rejected args () =
  Alcotest.(check int) (Printf.sprintf "sweep %s exits 2" args) 2
    (run ("sweep --paths 2 --shard-size 1 " ^ args))

let bad_sweep_values =
  [ "--budget=nan"; "--budget=inf"; "--budget=-1"; "--stop-after=-2";
    "--triage-k=-1"; "--schemes=" ]

(* [trace] of a file holding [contents] *)
let summarize contents =
  let path = Filename.temp_file "nimtrace" ".dat" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc;
  Sys.command (Printf.sprintf "%s trace %s > /dev/null 2>&1" cli path)

let random_bytes =
  let st = Random.State.make [| 100 |] in
  String.init 100 (fun _ -> Char.chr (Random.State.int st 256))

let bad_traces =
  [ ("100 random bytes", random_bytes);
    ("binary header plus 2 stray bytes", "NIMTRC01\x00\x01");
    ("truncated JSONL line", "{\"t\":1,\n");
    ("CSV trace", "time,ev,a,b,c,d,i1,i2,i3\n0.5,demoted,0,0,0,0,0,0,0\n") ]

let trace_rejected contents () =
  Alcotest.(check int) "trace exits 2" 2 (summarize contents)

(* reading a directory fails after it opens, so it is an error, not an
   uncaught exception *)
let test_directory_rejected () =
  Alcotest.(check int) "trace DIR exits 2" 2
    (Sys.command
       (Printf.sprintf "%s trace %s > /dev/null 2>&1" cli
          (Filename.quote (Filename.get_temp_dir_name ()))))

(* every subcommand writes JSONL, whatever the extension *)
let test_bin_suffix_is_jsonl () =
  let path = Filename.temp_file "nimtrace" ".bin" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Alcotest.(check int) "simulate --trace x.bin exits 0" 0
    (simulate ("--trace " ^ Filename.quote path));
  Alcotest.(check int) "trace x.bin exits 0" 0
    (Sys.command
       (Printf.sprintf "%s trace %s > /dev/null 2>&1" cli
          (Filename.quote path)))

(* The fault matrix's full trace, pinned: it carries 16 of the 17 event
   kinds (every one but [violation]), including the fault, flow-control,
   bottleneck and election events the dumbbell pin in [test_topology] never
   sees, so any change to the JSONL encoding of those shows up here.  The
   matrix concatenates per-case buffers in input order, so the bytes are the
   same for any [--jobs]. *)
let test_faults_trace_pinned () =
  List.iter
    (fun jobs ->
      let path = Filename.temp_file "nimfaults" ".jsonl" in
      Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
      Alcotest.(check int)
        (Printf.sprintf "faults --jobs %d exits 0" jobs)
        0
        (Sys.command
           (Printf.sprintf
              "%s faults --seeds 1 --jobs %d --trace %s --trace-filter all \
               > /dev/null 2>&1"
              cli jobs (Filename.quote path)));
      let size = In_channel.with_open_bin path In_channel.length in
      Alcotest.(check int64)
        (Printf.sprintf "--jobs %d trace length" jobs)
        16_224_467L size;
      Alcotest.(check string)
        (Printf.sprintf "--jobs %d trace digest" jobs)
        "6891f1f475a7da29bd119def77060309"
        (Digest.to_hex (Digest.file path)))
    [ 1; 2 ]

(* An output path that cannot be written (a directory as a file, a file as
   a directory) is rejected with exit 2 before the run, not by an uncaught
   Sys_error (exit 125) once the work is done.  Each case gets a fresh
   directory and file, removed afterwards with whatever a failed write left
   beside them. *)
let unwritable_outputs =
  let sweep = "sweep --paths 2 --shard-size 1 --schemes cubic" in
  [ ("simulate --trace DIR", fun ~dir ~file:_ ->
        "simulate --duration 1 --trace " ^ dir);
    ("parking --trace DIR", fun ~dir ~file:_ ->
        "parking --links 2 --flows 2 --duration 1 --trace " ^ dir);
    ("faults --report DIR", fun ~dir ~file:_ ->
        "faults --seeds 1 --report " ^ dir);
    ("faults --trace DIR", fun ~dir ~file:_ ->
        "faults --seeds 1 --trace " ^ dir);
    ("sweep --checkpoint DIR", fun ~dir ~file:_ ->
        sweep ^ " --checkpoint " ^ dir);
    ("sweep --checkpoint DIR --resume", fun ~dir ~file:_ ->
        sweep ^ " --resume --checkpoint " ^ dir);
    ("sweep --triage-dir FILE", fun ~dir:_ ~file ->
        sweep ^ " --triage-k 1 --triage-dir " ^ file) ]

let output_rejected args () =
  let dir = Filename.temp_dir "nimcli" "" in
  let file = Filename.temp_file "nimcli" ".out" in
  Fun.protect ~finally:(fun () ->
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        [ file; dir ^ ".tmp" ];
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
  @@ fun () ->
  Alcotest.(check int) "exits 2" 2
    (Sys.command
       (Printf.sprintf "%s %s > /dev/null 2>&1" cli
          (args ~dir:(Filename.quote dir) ~file:(Filename.quote file))))

(* Every float flag of [simulate], [parking] and [sweep], fed an
   adversarial spelling, one flag at a time: the run exits 0 (the value is
   in the flag's domain and ran) or 2 (a parse or domain error, with a
   message), never 125 (an uncaught exception) or 124 (the timeout: a run
   that never ended).  The property found a link or cross rate of
   [1e-320] Mbit/s dying on an infinite packet time (125), a duration of
   [1e308] s never ending, and an unparsable number ([1e], or nothing)
   exiting with cmdliner's 124.  Runs go one at a time under [run]'s 60 s
   timeout, short ones: 0.5 simulated seconds unless the flag drawn is the
   duration. *)
let float_flags =
  [ ("simulate --cross=poisson", "rate"); ("simulate --cross=poisson", "rtt");
    ("simulate --cross=poisson", "duration");
    ("simulate --cross=poisson", "cross-rate");
    ("parking --links 2 --flows 2", "rate");
    ("parking --links 2 --flows 2", "duration");
    ("sweep --paths 2 --shard-size 1 --schemes cubic", "budget") ]

let spellings = [ "nan"; "inf"; "-inf"; "0"; "-0"; "1e308"; "1e-320"; "1e"; "" ]

let prop_float_flags_total =
  let gen =
    QCheck.Gen.(
      pair (oneofl float_flags)
        (frequency
           [ (4, oneofl spellings);
             (1, map (fun x -> Printf.sprintf "%.17g" (-.x)) (float_range 1e-9 1e9))
           ]))
  in
  let print ((cmd, flag), value) = Printf.sprintf "%s --%s=%S" cmd flag value in
  QCheck.Test.make ~count:40
    ~name:"cli: a float flag's run exits 0 or 2, whatever its spelling"
    (QCheck.make ~print gen)
    (fun ((cmd, flag), value) ->
      let short =
        if String.equal flag "duration" || String.starts_with ~prefix:"sweep" cmd
        then ""
        else " --duration=0.5"
      in
      let code =
        run (Printf.sprintf "%s%s --%s=%s" cmd short flag (Filename.quote value))
      in
      code = 0 || code = 2)

let test_valid_run () =
  Alcotest.(check int) "a short valid run exits 0" 0
    (simulate "--cross=cbr --cross-rate=24")

let suite =
  [ ( "cli.simulate",
      Alcotest.test_case "valid flags run" `Quick test_valid_run
      :: List.map
           (fun args -> Alcotest.test_case args `Quick (rejected args))
           bad_values );
    ( "cli.parking",
      List.map
        (fun args -> Alcotest.test_case args `Quick (parking_rejected args))
        bad_parking_values );
    ( "cli.sweep",
      List.map
        (fun args -> Alcotest.test_case args `Quick (sweep_rejected args))
        bad_sweep_values );
    ("cli.flags", [ QCheck_alcotest.to_alcotest prop_float_flags_total ]);
    ( "cli.output",
      List.map
        (fun (name, args) ->
          Alcotest.test_case name `Quick (output_rejected args))
        unwritable_outputs );
    ( "cli.trace",
      List.map
        (fun (name, contents) ->
          Alcotest.test_case name `Quick (trace_rejected contents))
        bad_traces
      @ [ Alcotest.test_case "a directory" `Quick test_directory_rejected;
          Alcotest.test_case "x.bin trace reads back" `Quick
            test_bin_suffix_is_jsonl;
          Alcotest.test_case "faults trace pinned" `Slow
            test_faults_trace_pinned ] ) ]
