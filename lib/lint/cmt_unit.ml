type t = {
  source : string;
  modname : string;
  structure : Typedtree.structure;
}

(* dune wraps library modules as Lib__Module; the linter reasons about
   the display name a human writes in source.  Split on the last "__",
   not the last '_': "Maxreg__Cas_maxreg" -> "Cas_maxreg". *)
let display_name modname =
  let n = String.length modname in
  let rec last_sep i best =
    if i >= n - 1 then best
    else if modname.[i] = '_' && modname.[i + 1] = '_' then last_sep (i + 1) (Some i)
    else last_sep (i + 1) best
  in
  match last_sep 0 None with
  | Some i when i + 2 < n -> String.sub modname (i + 2) (n - i - 2)
  | _ -> modname

(* dune's [copy_files#] compiles a copy that opens with a line directive
   naming the original, and the typed tree's locations follow it: the
   first item's file is the source a human edits, whichever library the
   copy was compiled into. *)
let written_in ~compiled (structure : Typedtree.structure) =
  match structure.str_items with
  | item :: _ when item.str_loc.Location.loc_start.Lexing.pos_fname <> "" ->
    item.str_loc.Location.loc_start.Lexing.pos_fname
  | _ -> compiled

let load path =
  match Cmt_format.read_cmt path with
  | exception _ -> None
  | cmt ->
    (match cmt.Cmt_format.cmt_annots, cmt.Cmt_format.cmt_sourcefile with
     | Cmt_format.Implementation structure, Some compiled ->
       Some
         { source = written_in ~compiled structure;
           modname = display_name cmt.Cmt_format.cmt_modname;
           structure }
     | _ -> None)

let scan ~build_dir =
  let units = ref [] in
  let seen = Hashtbl.create 64 in
  let rec walk dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> ()
    | entries ->
      Array.sort String.compare entries;
      Array.iter
        (fun entry ->
          let path = Filename.concat dir entry in
          if Sys.is_directory path then walk path
          else if Filename.check_suffix entry ".cmt" then
            match load path with
            | None -> ()
            | Some u ->
              (* dune can produce several cmts per compile (e.g. an alias
                 module compiled for multiple stanzas); keep the first.
                 Two compiles of one source differ in their wrapped
                 module name and are both kept. *)
              let key = (u.source, Filename.basename path) in
              if not (Hashtbl.mem seen key) then begin
                Hashtbl.add seen key ();
                units := u :: !units
              end)
        entries
  in
  walk build_dir;
  List.sort (fun a b -> String.compare a.source b.source) !units
