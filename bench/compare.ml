(* Old-vs-new comparison of two --micro --json dumps (the BENCH_micro.json
   shape written by Micro.run).  Prints a GitHub-flavoured markdown table of
   per-benchmark deltas — CI appends it to GITHUB_STEP_SUMMARY so every PR
   shows its perf trajectory without downloading artifacts.  Negative ns
   deltas mean the new run is faster.  End-to-end throughput is perfbench's
   job (perfbench/README.md), not this table's.

   The parser is a deliberately small line scanner for exactly the shape
   micro.ml writes (one benchmark object per line):
   there is no JSON library in the dependency set, and round-tripping our
   own writer does not justify adding one. *)

let substr_end line needle =
  let n = String.length line and m = String.length needle in
  let rec go i =
    if i + m > n then None
    else if String.sub line i m = needle then Some (i + m)
    else go (i + 1)
  in
  go 0

let skip_ws line i =
  let n = String.length line in
  let rec go i =
    if i < n && (line.[i] = ' ' || line.[i] = '\t') then go (i + 1) else i
  in
  go i

(* value of ["key": "..."] on this line, if present *)
let string_field line key =
  match substr_end line (Printf.sprintf "\"%s\":" key) with
  | None -> None
  | Some i ->
    let i = skip_ws line i in
    if i >= String.length line || line.[i] <> '"' then None
    else (
      match String.index_from_opt line (i + 1) '"' with
      | None -> None
      | Some j -> Some (String.sub line (i + 1) (j - i - 1)))

(* value of ["key": 12.3] on this line, if present; JSON null parses as nan
   (micro.ml writes null for estimates Bechamel could not produce) *)
let num_field line key =
  match substr_end line (Printf.sprintf "\"%s\":" key) with
  | None -> None
  | Some i ->
    let i = skip_ws line i in
    let n = String.length line in
    let j = ref i in
    let num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | 'n' | 'u' | 'l' -> true (* null *)
      | _ -> false
    in
    while !j < n && num_char line.[!j] do
      incr j
    done;
    if !j = i then None
    else
      let tok = String.sub line i (!j - i) in
      if String.equal tok "null" then Some nan else float_of_string_opt tok

type row = {
  ns : float;
  words : float;
}

(* benchmark rows in file order *)
let load path =
  let ic = open_in path in
  let rows = ref [] in
  (try
     while true do
       let line = input_line ic in
       match string_field line "name" with
       | Some name ->
         let field key = Option.value ~default:nan (num_field line key) in
         let row =
           { ns = field "ns_per_run"; words = field "minor_words_per_run" }
         in
         rows := (name, row) :: !rows
       | None -> ()
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !rows

let fnum v = if Float.is_finite v then Printf.sprintf "%.1f" v else "—"

(* relative change, rendered "+4.2%" / "-98.1%"; dashed when either side is
   missing or the base is zero (a 0→0 words delta is just "—") *)
let fdelta ~old_ ~new_ =
  if Float.is_finite old_ && Float.is_finite new_ && Float.abs old_ > 0. then
    Printf.sprintf "%+.1f%%" ((new_ -. old_) /. old_ *. 100.)
  else "—"

let run ~old_file ~new_file =
  match (load old_file, load new_file) with
  | exception Sys_error msg ->
    Printf.eprintf "compare: %s\n" msg;
    2
  | old_rows, new_rows ->
    (* every name from either file: new-file order first, then old-only *)
    let names =
      List.map fst new_rows
      @ List.filter
          (fun n -> not (List.mem_assoc n new_rows))
          (List.map fst old_rows)
    in
    let get rows name =
      Option.value ~default:{ ns = nan; words = nan } (List.assoc_opt name rows)
    in
    Printf.printf "Micro-benchmark deltas: %s -> %s\n\n" old_file new_file;
    print_endline
      "| benchmark | ns/run (old) | ns/run (new) | Δ ns/run | words/run \
       (old) | words/run (new) |";
    print_endline "|---|---:|---:|---:|---:|---:|";
    List.iter
      (fun name ->
        let o = get old_rows name and n = get new_rows name in
        Printf.printf "| %s | %s | %s | %s | %s | %s |\n" name (fnum o.ns)
          (fnum n.ns)
          (fdelta ~old_:o.ns ~new_:n.ns)
          (fnum o.words) (fnum n.words))
      names;
    0
