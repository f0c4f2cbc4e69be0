(* Load the compiler's typed ASTs (.cmt files) produced by the dune
   build. The analyzer never re-types the tree: it reads the binary
   annotations the existing compilation already emitted, so a rebuild of
   the check is incremental with the build itself.

   Dune layout assumption (library [phoebe_x] in directory [lib/x]):
     lib/x/.phoebe_x.objs/byte/phoebe_x__Module.cmt
   The alias unit (the generated [phoebe_x.cmt], no "__" in its name) is
   only module aliases and is skipped; its name is collected as a
   library root so call paths through it ([Phoebe_storage.Latch.f]) can
   be normalized to the short unit name ([Latch.f]). *)

type unit_info = {
  unit_name : string;  (** short module name, e.g. "Latch" *)
  source : string;  (** source path as recorded by the compiler, e.g. "lib/storage/latch.ml" *)
  has_intf : bool;  (** a sibling .cmti exists: the unit has an .mli *)
  str : Typedtree.structure;
}

type t = {
  units : unit_info list;  (** sorted by [unit_name] *)
  lib_roots : string list;  (** alias-unit module names, e.g. "Phoebe_storage" *)
}

let short_of_modname modname =
  match String.index_opt modname '_' with
  | None -> modname
  | Some _ -> (
    (* Foo__Bar -> Bar *)
    let n = String.length modname in
    let rec find i =
      if i + 1 >= n then None
      else if modname.[i] = '_' && modname.[i + 1] = '_' then Some (i + 2)
      else find (i + 1)
    in
    match find 0 with None -> modname | Some j -> String.sub modname j (n - j))

let rec collect_cmts dir acc =
  match Sys.is_directory dir with
  | exception Sys_error _ -> acc
  | false -> if Filename.check_suffix dir ".cmt" then dir :: acc else acc
  | true ->
    Array.fold_left
      (fun acc entry -> collect_cmts (Filename.concat dir entry) acc)
      acc (Sys.readdir dir)

let load_dirs dirs =
  let cmts = List.fold_left (fun acc d -> collect_cmts d acc) [] dirs in
  let cmts = List.sort_uniq String.compare cmts in
  let units = ref [] and roots = ref [] in
  List.iter
    (fun path ->
      let base = Filename.remove_extension (Filename.basename path) in
      (* generated library roots have no "__"; real units are mangled *)
      let is_alias_unit = String.equal (short_of_modname base) base in
      match Cmt_format.read_cmt path with
      | exception _ -> () (* unreadable or version-skewed cmt: skip *)
      | cmt -> (
        if is_alias_unit then roots := cmt.Cmt_format.cmt_modname :: !roots
        else
          match cmt.Cmt_format.cmt_annots with
          | Cmt_format.Implementation str ->
            let source = match cmt.Cmt_format.cmt_sourcefile with Some s -> s | None -> "" in
            units :=
              {
                unit_name = short_of_modname cmt.Cmt_format.cmt_modname;
                source;
                has_intf = Sys.file_exists (Filename.remove_extension path ^ ".cmti");
                str;
              }
              :: !units
          | _ -> ()))
    cmts;
  {
    units = List.sort (fun a b -> String.compare a.unit_name b.unit_name) !units;
    lib_roots = List.sort_uniq String.compare !roots;
  }
