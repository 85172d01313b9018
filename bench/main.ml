(* Micro-benchmark harness: Bechamel micro-benchmarks of the core
   primitives.  The paper's tables and figures are regenerated by
   `nimbus_cli run`, and end-to-end speed is measured by perfbench/.

   Usage:
     bench/main.exe                 run the micro-benchmarks
     bench/main.exe --json BENCH_micro.json
                                    also dump machine-readable results
     bench/main.exe --compare OLD,NEW
                                    markdown delta table of two JSON dumps *)

let main compare json assert_trace_overhead =
  match compare with
  | Some (old_file, new_file) -> Compare.run ~old_file ~new_file
  | None -> Micro.run ?json ?assert_trace_overhead ()

open Cmdliner

let compare =
  Arg.(
    value
    & opt (some (pair ~sep:',' file file)) None
    & info [ "compare" ] ~docv:"OLD,NEW"
        ~doc:
          "Print a markdown table of per-benchmark deltas between two \
           $(b,--json) dumps and exit (CI appends it to the step summary).")

let json =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE" ~doc:"Also write results as JSON to $(docv).")

let assert_trace_overhead =
  Arg.(
    value
    & opt (some float) None
    & info
        [ "assert-trace-overhead" ]
        ~docv:"PCT"
        ~doc:
          "Exit nonzero if full-mask tracing slows the Nimbus controller tick \
           (nimbus.tick.traced vs nimbus.tick.plain) by more than $(docv) \
           percent AND by more than an absolute per-tick floor (the fixed \
           record cost; see bench/micro.ml).")

let cmd =
  let doc = "micro-benchmarks of the core primitives" in
  Cmd.v
    (Cmd.info "nimbus-bench" ~doc)
    Term.(const main $ compare $ json $ assert_trace_overhead)

let () = exit (Cmd.eval' cmd)
