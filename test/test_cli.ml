(* The CLI's flag domains, end to end: each out-of-domain `simulate` value
   must be rejected with exit 2 before anything is built.  Unchecked, an
   infinite cross rate hangs the run, a NaN runs silently with no cross
   traffic or an empty timeline, and a non-positive link rate or negative
   RTT escapes as an uncaught exception (exit 125). *)

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
    "--duration=nan";
    "--duration=-1";
    "--duration=inf";
    "--rate=nan";
    "--rate=0";
    "--rate=inf";
    "--rtt=nan";
    "--rtt=-10";
    "--rtt=inf" ]

let test_valid_run () =
  Alcotest.(check int) "a short valid run exits 0" 0
    (simulate "--cross=cbr --cross-rate=24")

let suite =
  [ ( "cli.simulate",
      Alcotest.test_case "valid flags run" `Quick test_valid_run
      :: List.map
           (fun args -> Alcotest.test_case args `Quick (rejected args))
           bad_values ) ]
