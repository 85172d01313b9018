(* Shared CLI plumbing: the flags every subcommand should spell the same way
   (--full, --jobs, --seeds, --trace, --trace-filter) plus the pool and trace
   helpers that interpret them.  Subcommands compose these terms instead of
   re-declaring their own. *)

module Common = Nimbus_experiments.Common
module Trace = Nimbus_trace.Trace

open Cmdliner

let profile full = if full then Common.full else Common.quick

(* [with_pool jobs f] runs [f] with a pool of [jobs] domains, which [f]
   puts in its run's profile; tables are byte-identical whatever the pool
   size, since cases are independently seeded and merged in input order *)
let with_pool jobs f =
  let domains =
    match jobs with
    | Some j ->
      if j < 1 then begin
        Printf.eprintf "--jobs must be >= 1\n";
        exit 2
      end;
      j
    | None -> Domain.recommended_domain_count ()
  in
  Nimbus_parallel.Pool.run ~domains f

let full = Arg.(value & flag & info [ "full" ] ~doc:"Paper-scale profile.")

let jobs =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Fan experiment cases out over $(docv) domains (default: the \
           recommended domain count). Output is byte-identical for any N.")

let seeds =
  Arg.(
    value
    & opt (some int) None
    & info [ "seeds" ] ~docv:"N"
        ~doc:"Run each case under $(docv) seeds (default: profile).")

let seeds_profile p = function
  | None -> p
  | Some s ->
    if s < 1 then begin
      Printf.eprintf "--seeds must be >= 1\n";
      exit 2
    end;
    { p with Common.seeds = s }

let trace_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record a structured event trace to $(docv) as JSONL, one event \
           per line, whatever its extension. Summarize with `nimbus_cli \
           trace FILE'.")

let trace_filter =
  Arg.(
    value
    & opt string "all"
    & info [ "trace-filter" ] ~docv:"CATS"
        ~doc:
          "Comma-separated trace categories (engine, packet, bottleneck, \
           fault, flow, detector, spectrum, pulse, mode, election, \
           invariant) or 'all'.")

(* exit 2 on a bad filter, like any other argv error *)
let trace_mask filter =
  match Trace.parse_filter filter with
  | Ok mask -> mask
  | Error msg ->
    Printf.eprintf "bad --trace-filter: %s\n" msg;
    exit 2

(* [open_output ~flag path] opens [path] for writing before the run starts,
   so an unwritable path (a directory, a missing parent) exits 2 with a
   message instead of escaping as an exception once the work is done *)
let open_output ~flag path =
  try open_out_bin path
  with Sys_error msg ->
    Printf.eprintf "%s: cannot write %s\n" flag msg;
    exit 2

(* [with_trace ?out ~filter f] builds the run's collector, writing to [out]
   (or a disabled collector when absent), handed to [f] together with a
   [flush] the caller should schedule off the hot path (e.g. on a 1 s engine
   event).  The trace is flushed and closed when [f] returns.  The filter is
   checked even without [out]. *)
let with_trace ?out ~filter f =
  let mask = trace_mask filter in
  match out with
  | None -> f Trace.disabled (fun () -> ())
  | Some path ->
    let oc = open_output ~flag:"--trace" path in
    let tr = Trace.create ~mask () in
    Trace.attach tr (`Channel oc);
    Fun.protect
      ~finally:(fun () -> Trace.close tr)
      (fun () -> f tr (fun () -> Trace.flush tr))
