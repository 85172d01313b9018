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

(* Every record of a JSONL trace as (time, event name, line), in file order,
   or the first line that is not a whole trace record. *)
let jsonl_records s =
  let rec go i acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest when String.equal (String.trim line) "" -> go (i + 1) acc rest
    | line :: rest -> (
      let closed =
        let l = String.trim line in
        Char.equal l.[0] '{' && Char.equal l.[String.length l - 1] '}'
      in
      let time = Option.bind (json_field line "t") float_of_string_opt in
      let name = Option.bind (json_field line "ev") quoted in
      match (closed, time, name) with
      | true, Some time, Some name -> go (i + 1) ((time, name, line) :: acc) rest
      | _ ->
        Error
          (Printf.sprintf
             "not a JSONL trace: line %d is not an object with a numeric \"t\" \
              and a string \"ev\""
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
  Result.map summarize (Result.bind (read_file path) jsonl_records)
