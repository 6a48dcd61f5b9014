open Typedtree

(* ------------------------------------------------------------------ *)
(* Path helpers                                                        *)

let rec path_components p acc =
  match p with
  | Path.Pident id -> Ident.name id :: acc
  | Path.Pdot (p, s) -> path_components p (s :: acc)
  | Path.Papply (p, _) -> path_components p acc
  | Path.Pextra_ty (p, _) -> path_components p acc

(* [Atomic.get] resolves to Stdlib.Atomic.get (or Stdlib__Atomic.get,
   depending on how the alias was reached); both normalize to root
   "Atomic" so the config speaks in source-level names. *)
let normalize = function
  | "Stdlib" :: rest -> rest
  | head :: rest
    when String.length head > 8 && String.sub head 0 8 = "Stdlib__" ->
    String.sub head 8 (String.length head - 8) :: rest
  | comps -> comps

let components p = normalize (path_components p [])

let last_component comps =
  match List.rev comps with [] -> "" | last :: _ -> last

let rec is_prefix pre l =
  match pre, l with
  | [], _ -> true
  | _, [] -> false
  | p :: pre, x :: l -> String.equal p x && is_prefix pre l

let under_dir dir source =
  String.equal source dir
  || (String.length source > String.length dir
      && String.sub source 0 (String.length dir) = dir
      && source.[String.length dir] = '/')

(* ------------------------------------------------------------------ *)
(* Shared iteration machinery: walk a structure keeping the display
   module path ("Adaptive" :: "Ctl" :: ...) current, calling
   [on_expr]/[on_vb]/[on_vbs]/[on_mexpr] at each node. *)

let walk_structure ~modname ?on_expr ?on_typ ?on_vb ?on_vbs ?on_mexpr str =
  let dflt = Tast_iterator.default_iterator in
  (* innermost first; callers see outermost first *)
  let stack = ref [ modname ] in
  let current () = List.rev !stack in
  let call f x = match f with None -> () | Some f -> f ~mods:(current ()) x in
  let iter =
    { dflt with
      module_binding =
        (fun self mb ->
          let name =
            match mb.mb_name.txt with Some n -> n | None -> "_"
          in
          stack := name :: !stack;
          dflt.module_binding self mb;
          stack := List.tl !stack);
      expr =
        (fun self e ->
          call on_expr e;
          dflt.expr self e);
      typ =
        (fun self t ->
          call on_typ t;
          dflt.typ self t);
      module_expr =
        (fun self me ->
          call on_mexpr me;
          dflt.module_expr self me);
      value_binding =
        (fun self vb ->
          call on_vb vb;
          dflt.value_binding self vb);
      value_bindings =
        (fun self (rf, vbs) ->
          call on_vbs (rf, vbs);
          dflt.value_bindings self (rf, vbs)) }
  in
  iter.structure iter str

(* Does [e] (or any subexpression) mention an identifier whose final
   component is in [names]?  Used by R2 to find the shared-memory
   read/CAS inside a loop. *)
let expr_mentions ~names e =
  let found = ref false in
  let dflt = Tast_iterator.default_iterator in
  let iter =
    { dflt with
      expr =
        (fun self e ->
          (match e.exp_desc with
           | Texp_ident (p, _, _)
             when List.mem (last_component (components p)) names ->
             found := true
           | _ -> ());
          if not !found then dflt.expr self e) }
  in
  iter.expr iter e;
  !found

(* ------------------------------------------------------------------ *)
(* R1: atomics containment                                             *)

let r1 ~(config : Config.t) (u : Cmt_unit.t) =
  let dir_allowed =
    List.exists
      (function
        | Config.Dir d -> under_dir d u.source
        | Config.Module_path _ -> false)
      config.r1_allow
  in
  if dir_allowed then []
  else begin
    let diags = ref [] in
    let mods_allowed mods =
      List.exists
        (function
          | Config.Dir _ -> false
          | Config.Module_path mp -> is_prefix mp mods)
        config.r1_allow
    in
    let flag ~mods ~loc what comps =
      if not (mods_allowed mods) then
        diags :=
          Diagnostic.v ~rule:"R1" ~loc
            (Printf.sprintf
               "direct use of %s %s outside the memory layer; go through \
                MEMORY or Raw (lib/smem) or add a reviewed entry to \
                Lint.Config.r1_allow"
               what
               (String.concat "." comps))
          :: !diags
    in
    let banned comps =
      match comps with
      | root :: _ -> List.mem root config.r1_banned
      | [] -> false
    in
    let on_expr ~mods e =
      match e.exp_desc with
      | Texp_ident (p, _, _) ->
        let comps = components p in
        if banned comps then flag ~mods ~loc:e.exp_loc "primitive" comps
      | _ -> ()
    in
    let on_typ ~mods (t : core_type) =
      match t.ctyp_desc with
      | Ttyp_constr (p, _, _) ->
        let comps = components p in
        if banned comps then flag ~mods ~loc:t.ctyp_loc "type" comps
      | _ -> ()
    in
    let on_mexpr ~mods me =
      match me.mod_desc with
      | Tmod_ident (p, _) ->
        let comps = components p in
        if banned comps then flag ~mods ~loc:me.mod_loc "module alias" comps
      | _ -> ()
    in
    walk_structure ~modname:u.modname ~on_expr ~on_typ ~on_mexpr u.structure;
    !diags
  end

(* ------------------------------------------------------------------ *)
(* R2: progress witness                                                *)

let r2 ~(config : Config.t) (u : Cmt_unit.t) =
  if not (List.exists (fun d -> under_dir d u.source) config.r2_dirs) then []
  else begin
    let diags = ref [] in
    let readish = config.r2_reads @ config.r2_cas in
    (* (a) [while true] whose condition+body never touch shared memory:
       nothing the loop observes can change, so it cannot terminate or
       make progress. *)
    let on_expr ~mods:_ e =
      match e.exp_desc with
      | Texp_while (cond, body) ->
        let const_true =
          match cond.exp_desc with
          | Texp_construct (_, { Types.cstr_name = "true"; _ }, []) -> true
          | _ -> false
        in
        if
          const_true
          && (not (expr_mentions ~names:readish cond))
          && not (expr_mentions ~names:readish body)
        then
          diags :=
            Diagnostic.v ~rule:"R2" ~loc:e.exp_loc
              "unbounded loop never re-reads shared memory: no step of \
               another process can make it exit (spin-without-reread)"
            :: !diags
      | _ -> ()
    in
    (* (b) recursive retry functions: a [let rec] that CASes and calls
       itself must also re-read shared state, otherwise every retry
       attempts the same stale exchange. *)
    let on_vbs ~mods:_ (rf, vbs) =
      match rf with
      | Asttypes.Nonrecursive -> ()
      | Asttypes.Recursive ->
        let bound =
          List.filter_map (fun vb -> Compat.pat_var_ident vb.vb_pat) vbs
        in
        let bound_names = List.map Ident.name bound in
        List.iter
          (fun vb ->
            match Compat.pat_var_ident vb.vb_pat with
            | Some id ->
              let self_call =
                expr_mentions ~names:bound_names vb.vb_expr
              in
              let has_cas =
                expr_mentions ~names:config.r2_cas vb.vb_expr
              in
              let has_read =
                expr_mentions ~names:config.r2_reads vb.vb_expr
              in
              if self_call && has_cas && not has_read then
                diags :=
                  Diagnostic.v ~rule:"R2" ~loc:vb.vb_loc
                    (Printf.sprintf
                       "recursive retry [%s] performs a CAS but never \
                        re-reads shared state before retrying"
                       (Ident.name id))
                  :: !diags
            | None -> ())
          vbs
    in
    walk_structure ~modname:u.modname ~on_expr ~on_vbs u.structure;
    !diags
  end

(* ------------------------------------------------------------------ *)
(* R3: hot-path allocation                                             *)

let alloc_roots =
  [ "Printf"; "Format"; "Fmt"; "Scanf"; "Buffer"; "Float"; "Int32"; "Int64";
    "Nativeint"; "Seq"; "Queue"; "Stack"; "Hashtbl" ]

(* Float arithmetic boxes its result (absent flambda and outside the
   local-unboxing window); string/list append always allocates. *)
let alloc_prims =
  [ "+."; "-."; "*."; "/."; "**"; "~-."; "float_of_int"; "float_of_string";
    "string_of_int"; "string_of_float"; "@"; "^"; "^^" ]

let alloc_collection_roots = [ "List"; "Array"; "String"; "Bytes" ]

let alloc_collection_fns =
  [ "make"; "create"; "init"; "copy"; "append"; "concat"; "map"; "mapi";
    "map2"; "filter"; "filter_map"; "of_list"; "to_list"; "of_seq"; "to_seq";
    "sub"; "split_on_char"; "rev"; "sort"; "cat" ]

let r3_scan_alloc ~qual ~push e0 =
  let flag loc what =
    push
      (Diagnostic.v ~rule:"R3" ~loc
         (Printf.sprintf "%s in zero-allocation hot path %s" what
            (String.concat "." qual)))
  in
  let dflt = Tast_iterator.default_iterator in
  let iter =
    { dflt with
      expr =
        (fun self e ->
          (match e.exp_desc with
           | Texp_function _ -> flag e.exp_loc "closure allocation"
           | Texp_tuple _ -> flag e.exp_loc "tuple allocation"
           | Texp_record _ -> flag e.exp_loc "record allocation"
           | Texp_array _ -> flag e.exp_loc "array allocation"
           | Texp_construct (lid, _, _ :: _) ->
             flag e.exp_loc
               (Printf.sprintf "allocating constructor %s"
                  (String.concat "." (Longident.flatten lid.txt)))
           | Texp_variant (_, Some _) -> flag e.exp_loc "variant allocation"
           | Texp_lazy _ -> flag e.exp_loc "lazy-block allocation"
           | Texp_pack _ -> flag e.exp_loc "first-class-module allocation"
           | Texp_object _ | Texp_new _ ->
             flag e.exp_loc "object allocation"
           | Texp_letop _ -> flag e.exp_loc "binding-operator allocation"
           | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _) ->
             (let comps = components p in
              match comps with
              | [ prim ] when List.mem prim alloc_prims ->
                flag e.exp_loc
                  (Printf.sprintf "call to allocating primitive (%s)" prim)
              | root :: _ when List.mem root alloc_roots ->
                flag e.exp_loc
                  (Printf.sprintf "call into allocating module %s"
                     (String.concat "." comps))
              | [ root; fn ]
                when List.mem root alloc_collection_roots
                     && List.mem fn alloc_collection_fns ->
                flag e.exp_loc
                  (Printf.sprintf "allocating call %s"
                     (String.concat "." comps))
              | _ -> ())
           | _ -> ());
          dflt.expr self e) }
  in
  iter.expr iter e0

let r3_check_target ~(target : Config.r3_target) ~push vb =
  match target.mode with
  | Config.Body ->
    (* the outer [fun a -> fun b -> ...] chain is the function's own
       closure, built once at definition time; only what runs per call
       is the hot path *)
    List.iter
      (r3_scan_alloc ~qual:target.qual ~push)
      (Compat.function_bodies vb.vb_expr [])
  | Config.Loops ->
    (* only the timed while/for bodies (and while conditions, which
       also run every iteration) must be allocation-free; setup and
       epilogue may build result records freely. *)
    let dflt = Tast_iterator.default_iterator in
    let iter =
      { dflt with
        expr =
          (fun self e ->
            (match e.exp_desc with
             | Texp_while (cond, body) ->
               r3_scan_alloc ~qual:target.qual ~push cond;
               r3_scan_alloc ~qual:target.qual ~push body
             | Texp_for (_, _, _, _, _, body) ->
               r3_scan_alloc ~qual:target.qual ~push body
             | _ -> ());
            dflt.expr self e) }
    in
    iter.expr iter vb.vb_expr

(* A target that names no binding would drop its pin silently (a
   rename or a deletion), so it is an error of its own, reported against
   the config the way C1 reports a budget row it cannot find. *)
let r3 ~(config : Config.t) units =
  let diags = ref [] in
  let push d = diags := d :: !diags in
  let seen = Hashtbl.create 64 in
  let on_vb ~mods vb =
    match Compat.pat_var_ident vb.vb_pat with
    | Some id ->
      let qual = mods @ [ Ident.name id ] in
      (match
         List.find_opt
           (fun (t : Config.r3_target) -> t.qual = qual)
           config.r3_targets
       with
       | Some target ->
         Hashtbl.replace seen qual ();
         r3_check_target ~target ~push vb
       | None -> ())
    | None -> ()
  in
  List.iter
    (fun (u : Cmt_unit.t) ->
      walk_structure ~modname:u.modname ~on_vb u.structure)
    units;
  List.iter
    (fun (t : Config.r3_target) ->
      if not (Hashtbl.mem seen t.qual) then
        push
          (Diagnostic.at ~rule:"R3" ~file:"lib/lint/config.ml" ~line:1 ~col:1
             (Printf.sprintf
                "zero-allocation target %s was not found in any scanned \
                 unit: rename or drop it in Lint.Config.r3_targets"
                (String.concat "." t.qual))))
    config.r3_targets;
  !diags

(* ------------------------------------------------------------------ *)
(* R4: interface hygiene (filesystem, no cmt needed)                   *)

let r4 ~(config : Config.t) ~root () =
  let diags = ref [] in
  let rec walk rel =
    match Sys.readdir (Filename.concat root rel) with
    | exception Sys_error _ -> ()
    | entries ->
      Array.sort String.compare entries;
      Array.iter
        (fun entry ->
          let rel' = rel ^ "/" ^ entry in
          let abs' = Filename.concat root rel' in
          if Sys.is_directory abs' then walk rel'
          else if
            Filename.check_suffix entry ".ml"
            && (not (List.mem rel' config.r4_allow))
            && not (Sys.file_exists (abs' ^ "i"))
          then
            diags :=
              Diagnostic.at ~rule:"R4" ~file:rel' ~line:1 ~col:1
                (Printf.sprintf
                   "module %s has no interface: add %si or a reviewed \
                    entry to Lint.Config.r4_allow"
                   (String.capitalize_ascii
                      (Filename.remove_extension entry))
                   rel')
              :: !diags)
        entries
  in
  List.iter walk config.r4_dirs;
  !diags
