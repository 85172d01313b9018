type t = {
  emit : time:float -> Event.t -> unit;
  close : unit -> unit;
}

let null = { emit = (fun ~time:_ _ -> ()); close = (fun () -> ()) }

let buffered_channel oc =
  (* share one scratch buffer per sink; flushed to the channel whenever it
     grows past a page so flush cost stays off the per-event path *)
  let buf = Buffer.create 4096 in
  let spill () =
    Buffer.output_buffer oc buf;
    Buffer.clear buf
  in
  let closed = ref false in
  let close () =
    if not !closed then begin
      closed := true;
      spill ();
      close_out oc
    end
  in
  (buf, spill, close)

let jsonl oc =
  let buf, spill, close = buffered_channel oc in
  let emit ~time ev =
    Event.to_json buf ~time ev;
    Buffer.add_char buf '\n';
    if Buffer.length buf > 4096 then spill ()
  in
  { emit; close }

let csv oc =
  let buf, spill, close = buffered_channel oc in
  Buffer.add_string buf Event.csv_header;
  Buffer.add_char buf '\n';
  let emit ~time ev =
    Event.to_csv buf ~time ev;
    Buffer.add_char buf '\n';
    if Buffer.length buf > 4096 then spill ()
  in
  { emit; close }

let binary oc =
  let buf, spill, close = buffered_channel oc in
  Buffer.add_string buf Event.binary_magic;
  let emit ~time ev =
    Event.to_binary buf ~time ev;
    if Buffer.length buf > 4096 then spill ()
  in
  { emit; close }

let jsonl_buffer buf =
  let emit ~time ev =
    Event.to_json buf ~time ev;
    Buffer.add_char buf '\n'
  in
  { emit; close = (fun () -> ()) }

let memory () =
  let events = ref [] in
  let emit ~time ev = events := (time, ev) :: !events in
  ({ emit; close = (fun () -> ()) }, fun () -> List.rev !events)

(* --- summaries ------------------------------------------------------------- *)

let read_file path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Ok (really_input_string ic (in_channel_length ic)))

(* A deliberately small JSONL reader: we only ever parse trace files we
   wrote ourselves, so a field scanner beats a JSON dependency. *)
let json_field line key =
  let pat = Printf.sprintf "\"%s\":" key in
  let plen = String.length pat in
  let len = String.length line in
  let rec find i =
    if i + plen > len then None
    else if String.equal (String.sub line i plen) pat then Some (i + plen)
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

let quoted s =
  let n = String.length s in
  if n >= 2 && Char.equal s.[0] '"' && Char.equal s.[n - 1] '"' then
    Some (String.sub s 1 (n - 2))
  else None

let is_notable = function
  | "mode_switch" | "detection" | "elected" | "demoted" | "violation"
  | "fault_fired" ->
    true
  | _ -> false

let starts_with s prefix =
  String.length s >= String.length prefix
  && String.equal (String.sub s 0 (String.length prefix)) prefix

(* Every record of a trace as (time, event name, line to list if notable),
   in file order, or the first reason the file is not a whole trace. *)
let binary_records s =
  let magic = String.length Event.binary_magic in
  let body = String.length s - magic in
  if body mod Event.binary_record_size <> 0 then
    Error
      (Printf.sprintf
         "binary trace: %d-byte body is not a whole number of %d-byte records"
         body Event.binary_record_size)
  else
    let rec go i acc =
      if i * Event.binary_record_size = body then Ok (List.rev acc)
      else
        match
          Event.of_binary s ~pos:(magic + (i * Event.binary_record_size))
        with
        | None -> Error (Printf.sprintf "binary trace: record %d does not decode" i)
        | Some (time, ev) ->
          let name = Event.name ev in
          let line =
            if is_notable name then begin
              let b = Buffer.create 128 in
              Event.to_json b ~time ev;
              Buffer.contents b
            end
            else ""
          in
          go (i + 1) ((time, name, line) :: acc)
    in
    go 0 []

let jsonl_records s =
  let rec go i acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest when String.equal (String.trim line) "" -> go (i + 1) acc rest
    | line :: rest -> (
      let closed =
        let l = String.trim line in
        starts_with l "{" && Char.equal l.[String.length l - 1] '}'
      in
      let time = Option.bind (json_field line "t") float_of_string_opt in
      let name = Option.bind (json_field line "ev") quoted in
      match (closed, time, name) with
      | true, Some time, Some name -> go (i + 1) ((time, name, line) :: acc) rest
      | _ ->
        Error
          (Printf.sprintf
             "JSONL trace: line %d is not an object with a numeric \"t\" and \
              a string \"ev\""
             i))
  in
  go 1 [] (String.split_on_char '\n' s)

let summarize records =
  let counts = Hashtbl.create 17 in
  List.iter
    (fun (_, name, _) ->
      Hashtbl.replace counts name
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts name)))
    records;
  let b = Buffer.create 1024 in
  Printf.bprintf b "events: %d\n" (List.length records);
  (match records with
   | [] -> ()
   | (t0, _, _) :: _ ->
     let t1, _, _ = List.nth records (List.length records - 1) in
     Printf.bprintf b "span: %s .. %s s\n" (Event.float_str t0)
       (Event.float_str t1));
  List.iter
    (fun (name, n) -> Printf.bprintf b "  %-14s %d\n" name n)
    (List.sort
       (fun (a, _) (b, _) -> String.compare a b)
       (Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts []));
  let notable = List.filter (fun (_, name, _) -> is_notable name) records in
  if notable <> [] then begin
    Buffer.add_string b "notable:\n";
    List.iter (fun (_, _, line) -> Printf.bprintf b "  %s\n" line) notable
  end;
  Buffer.contents b

let summarize_file path =
  let ( let* ) = Result.bind in
  let* s = read_file path in
  let* records =
    if starts_with s Event.binary_magic then binary_records s
    else if starts_with s Event.csv_header then
      Error "CSV trace: only JSONL and binary traces can be summarized"
    else if
      String.equal (String.trim s) "" || starts_with (String.trim s) "{"
    then jsonl_records s
    else Error "not a trace: neither NIMTRC01 binary nor JSONL"
  in
  Ok (summarize records)
