(* Suppression protocol, shared by the determinism, alloc, race, and units
   passes.

   Each pass honours one escape-hatch attribute ([@det_ok] / [@alloc_ok] /
   [@shared_ok] / [@unit_ok]) and emits its findings through a [sink].
   [guard] is the one way a pass meets a suppression: it runs the guarded
   check with its findings captured instead of reported, records the
   suppression as *visited* (its effect was decidable this run) and as
   *used* when the check produced at least one finding, and reports a
   suppression without a reason string as a finding of its own.  A visited
   suppression that suppressed nothing is *stale* — dead weight that would
   hide a future regression — and {!stale} reports it, so the escape
   hatches cannot rot.

   Separately, [collect] scans every unit for all suppression attributes
   (whether or not any pass visited them) to power `analyze
   --suppressions`, the audit listing of every escape hatch with its
   file:line and reason. *)

type entry = {
  s_attr : string;
  s_file : string;
  s_line : int;
  s_reason : string option;
  mutable s_used : bool;
}

type tracker = { seen : (string * string * int, entry) Hashtbl.t }

let create () = { seen = Hashtbl.create 64 }

(* the canonical line of a suppression is the attribute's own location (the
   carrying expression may span several lines); both [guard] and [collect]
   use this so their records line up *)
let attr_line ~fallback (a : Parsetree.attribute) =
  let l = a.attr_loc.loc_start.pos_lnum in
  if l > 0 then l else fallback

(* each escape hatch, the pass that honours it, and that pass's rule for a
   suppression without a reason; the order is the audit listing's *)
let hatches =
  [
    ("det_ok", ("determinism", "det-bare-suppression"));
    ("alloc_ok", ("alloc", "alloc-bare-suppression"));
    ("shared_ok", ("race", "race-bare-suppression"));
    ("unit_ok", ("units", "unit-bare-suppression"));
  ]

let suppression_attrs = List.map fst hatches

(* --- the protocol ----------------------------------------------------------- *)

type sink = {
  tracker : tracker;
  attr : string;
  mutable out : Finding.t -> unit;
}

let sink tracker ~attr = { tracker; attr; out = ignore }

let emit s f = s.out f

let trial s f =
  let saved = s.out in
  let found = ref [] in
  s.out <- (fun x -> found := x :: !found);
  let r = Fun.protect ~finally:(fun () -> s.out <- saved) f in
  (r, List.rev !found)

let guard s ~file ~fallback attrs f =
  match Defs.find_attr s.attr attrs with
  | None -> f ()
  | Some a ->
    let r, found = trial s f in
    let line = attr_line ~fallback a and reason = Defs.attr_reason a in
    let key = (s.attr, file, line) in
    let e =
      match Hashtbl.find_opt s.tracker.seen key with
      | Some e -> e
      | None ->
        let e =
          { s_attr = s.attr; s_file = file; s_line = line; s_reason = reason;
            s_used = false }
        in
        Hashtbl.replace s.tracker.seen key e;
        e
    in
    if found <> [] then e.s_used <- true;
    if reason = None then begin
      let pass_, rule = List.assoc s.attr hatches in
      emit s
        (Finding.v ~pass_ ~rule ~file ~line
           (Printf.sprintf
              "[@%s] must carry a reason string: [@%s \"why this is safe\"]"
              s.attr s.attr))
    end;
    r

let stale t =
  Hashtbl.fold (fun _ e acc -> if e.s_used then acc else e :: acc) t.seen []
  |> List.sort (fun a b ->
         match String.compare a.s_file b.s_file with
         | 0 -> Int.compare a.s_line b.s_line
         | c -> c)
  |> List.map (fun e ->
         Finding.v ~pass_:"suppress" ~rule:"suppress-stale" ~file:e.s_file
           ~line:e.s_line
           (Printf.sprintf "[@%s%s] no longer suppresses any finding; remove it"
              e.s_attr
              (match e.s_reason with
              | Some r -> Printf.sprintf " %S" r
              | None -> "")))

(* --- the audit listing ------------------------------------------------------ *)

type listed = {
  l_attr : string;
  l_file : string;
  l_line : int;
  l_reason : string option;
}

let collect (units : Cmt_scan.unit_info list) =
  let out = ref [] in
  let add ~file ~line (a : Parsetree.attribute) =
    if List.mem a.attr_name.txt suppression_attrs then
      out :=
        { l_attr = a.attr_name.txt; l_file = file;
          l_line = attr_line ~fallback:line a;
          l_reason = Defs.attr_reason a }
        :: !out
  in
  List.iter
    (fun (u : Cmt_scan.unit_info) ->
      match u.str with
      | None -> ()
      | Some str ->
        let file = u.source in
        let expr self (e : Typedtree.expression) =
          List.iter (add ~file ~line:e.exp_loc.loc_start.pos_lnum)
            e.exp_attributes;
          Tast_iterator.default_iterator.expr self e
        in
        let value_binding self (vb : Typedtree.value_binding) =
          List.iter (add ~file ~line:vb.vb_loc.loc_start.pos_lnum)
            vb.vb_attributes;
          Tast_iterator.default_iterator.value_binding self vb
        in
        let it =
          { Tast_iterator.default_iterator with expr; value_binding }
        in
        it.structure it str)
    units;
  List.sort_uniq
    (fun a b ->
      match String.compare a.l_file b.l_file with
      | 0 -> (
        match Int.compare a.l_line b.l_line with
        | 0 -> String.compare a.l_attr b.l_attr
        | c -> c)
      | c -> c)
    !out

type status = Used | Stale | Unvisited

let status t (l : listed) =
  match Hashtbl.find_opt t.seen (l.l_attr, l.l_file, l.l_line) with
  | Some e -> if e.s_used then Used else Stale
  | None -> Unvisited

let status_string = function
  | Used -> "used"
  | Stale -> "STALE"
  | Unvisited -> "unvisited"
