(* Loading of .cmt files out of dune's _build tree and the path/name
   normalization shared by the typedtree passes.

   Dune compiles library [foo] into [.foo.objs/byte/Foo__Module.cmt]; the
   owning library is recovered from that path segment.  References inside a
   wrapped library go through the generated alias module (the typedtree
   records [Nimbus_dsp.Fft.Plan.execute], not [Nimbus_dsp__Fft.Plan.execute]),
   so [normalize_path] fuses a leading known-alias module with the next
   component to produce one canonical spelling for definition lookup. *)

type unit_info = {
  cmt_path : string;
  lib : string option;
  modname : string;
  source : string;
  imports : string list;
  str : Typedtree.structure option;
}

(* an entry that vanishes mid-walk (a concurrent build replacing an
   archive) is skipped, not an uncaught Sys_error *)
let rec walk dir f =
  match Sys.readdir dir with
  | entries ->
    Array.sort String.compare entries;
    Array.iter
      (fun entry ->
        let path = Filename.concat dir entry in
        match Sys.is_directory path with
        | true -> walk path f
        | false -> f path
        | exception Sys_error _ -> ())
      entries
  | exception Sys_error _ -> ()

(* ".../.nimbus_dsp.objs/byte/x.cmt" -> Some "nimbus_dsp" *)
let lib_of_cmt_path path =
  let parts = String.split_on_char '/' path in
  List.find_map
    (fun part ->
      if
        String.length part > 6
        && part.[0] = '.'
        && Filename.check_suffix part ".objs"
      then Some (String.sub part 1 (String.length part - 6))
      else None)
    parts

(* "Nimbus_dsp__Spectrum" and "Nimbus_dsp" both belong to lib nimbus_dsp *)
let lib_of_modname modname =
  let stem =
    match String.index_opt modname '_' with
    | None -> modname
    | Some _ -> (
      let rec find i =
        if i + 1 >= String.length modname then modname
        else if modname.[i] = '_' && modname.[i + 1] = '_' then
          String.sub modname 0 i
        else find (i + 1)
      in
      find 0)
  in
  String.lowercase_ascii stem

let alias_module_of_lib lib = String.capitalize_ascii lib

let load path =
  match Cmt_format.read_cmt path with
  | info ->
    let str =
      match info.Cmt_format.cmt_annots with
      | Cmt_format.Implementation str -> Some str
      | _ -> None
    in
    Ok
      {
        cmt_path = path;
        lib = lib_of_cmt_path path;
        modname = info.Cmt_format.cmt_modname;
        source =
          (match info.Cmt_format.cmt_sourcefile with
          | Some s -> s
          | None -> path);
        imports = List.map fst info.Cmt_format.cmt_imports;
        str;
      }
  | exception exn -> Error (Printexc.to_string exn)

let scan roots =
  (* a library built in both modes leaves the same unit's .cmt under
     .objs/byte/ and .objs/native/; scanning both would double every
     finding, so each module name is kept once (byte sorts first) *)
  let seen = Hashtbl.create 256 in
  let units = ref [] and errors = ref [] in
  List.iter
    (fun root ->
      walk root (fun path ->
          if Filename.check_suffix path ".cmt" then
            match load path with
            | Ok u ->
              if not (Hashtbl.mem seen u.modname) then begin
                Hashtbl.add seen u.modname ();
                units := u :: !units
              end
            | Error msg ->
              errors :=
                Finding.v ~pass_:"analyze" ~rule:"cmt-read-error" ~file:path
                  ~line:1 msg
                :: !errors))
    roots;
  (List.rev !units, List.rev !errors)

let alias_mods units =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun u ->
      match u.lib with
      | Some lib -> Hashtbl.replace tbl (alias_module_of_lib lib) ()
      | None -> ())
    units;
  tbl

let normalize_name aliases name =
  match String.split_on_char '.' name with
  | [] -> name
  | head :: rest ->
    let stdlib_prefix = "Stdlib__" in
    if
      String.length head > String.length stdlib_prefix
      && String.sub head 0 (String.length stdlib_prefix) = stdlib_prefix
    then
      String.concat "."
        (String.sub head (String.length stdlib_prefix)
           (String.length head - String.length stdlib_prefix)
        :: rest)
    else if head = "Stdlib" && rest <> [] then String.concat "." rest
    else if Hashtbl.mem aliases head then
      match rest with
      | sub :: tail -> String.concat "." ((head ^ "__" ^ sub) :: tail)
      | [] -> name
    else name

let normalize_path aliases p = normalize_name aliases (Path.name p)
