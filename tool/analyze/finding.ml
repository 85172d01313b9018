(* One finding, shared by every pass.  [pass_] names the pass that produced
   it (parsetree / determinism / layering / alloc), [rule] is the stable
   machine-readable id the tests key on. *)

type t = {
  pass_ : string;
  rule : string;
  file : string;
  line : int;
  message : string;
}

let v ~pass_ ~rule ~file ~line message = { pass_; rule; file; line; message }

let compare a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = String.compare a.rule b.rule in
      if c <> 0 then c else String.compare a.message b.message

let pp ppf f =
  Format.fprintf ppf "%s:%d: [%s/%s] %s" f.file f.line f.pass_ f.rule f.message

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_json f =
  Printf.sprintf
    {|{"pass":"%s","rule":"%s","file":"%s","line":%d,"message":"%s"}|}
    (json_escape f.pass_) (json_escape f.rule) (json_escape f.file) f.line
    (json_escape f.message)
