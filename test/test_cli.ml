(* The CLI's flag domains, end to end: each out-of-domain `simulate` value
   must be rejected with exit 2 before anything is built.  Unchecked, an
   infinite cross rate hangs the run, a NaN runs silently with no cross
   traffic or an empty timeline, and a non-positive link rate or negative
   RTT escapes as an uncaught exception (exit 125).  `parking` checks its
   rate and duration too: a negative rate escaped as an uncaught exception,
   and a NaN or negative duration printed an all-zero table and exited 0,
   which passes a smoke gate on garbage.  Likewise `trace` must
   exit 2 on a file that is not a whole trace, instead of summarizing
   garbage. *)

let cli = "../bin/nimbus_cli.exe"

(* a one-simulated-second run unless [args] sets its own duration *)
let simulate args =
  let has_duration =
    String.length args >= 10 && String.sub args 0 10 = "--duration"
  in
  Sys.command
    (Printf.sprintf "%s simulate %s%s > /dev/null 2>&1" cli args
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
    "--rtt=nan";
    "--rtt=-10";
    "--rtt=inf";
    "--trace-filter=bogus" ]

let parking_rejected args () =
  Alcotest.(check int) (Printf.sprintf "parking %s exits 2" args) 2
    (Sys.command
       (Printf.sprintf "%s parking --links 2 --flows 2 %s > /dev/null 2>&1" cli
          args))

let bad_parking_values =
  [ "--rate=-5"; "--rate=nan"; "--rate=1e308"; "--duration=nan";
    "--duration=-1"; "--duration=inf" ]

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
