(* Rule C1: the static step-complexity certifier.

   An abstract interpretation of the dune-produced typed trees in the
   paper's cost model: a *step* is one access to shared memory — a
   [get]/[set]/[cas] (or [read]/[write]/[compare_and_set]/...) through
   the [Raw] cell module every structure is written against, or a raw
   [Atomic] access in the memory layer.  Everything else (local
   arithmetic, private arrays, allocation — [Raw.make]/[Atomic.make]
   are not steps) costs nothing,
   exactly as in the paper's complexity accounting.  A source compiled
   twice (one compile per [Raw]) registers the same display-qualified
   operations from both compiles; they read the same code, so each
   operation is certified once.

   The analysis computes a per-function {!Summary.t} (reads/writes/cas,
   each a {!Summary.bound}) bottom-up over the call graph:

   - resolved calls add the callee's summary (interprocedural, via a
     global table keyed by display-qualified paths, iterated to a
     fixpoint across units so cross-library calls resolve);
   - branches join, sequences add, [for]-loops with literal or
     [Budgets.const_bounds] limits multiply by the trip count, other
     [for]-loops by O(n);
   - [while] loops and recursions are Unbounded unless the recursion
     carries a [Budgets.recursion] depth annotation AND its iteration
     re-reads shared state (the semantic R2 witness: without a re-read,
     no step of another process can bound the retries, so a depth
     annotation would certify a lie);
   - calls through a non-memory functor parameter are Unbounded (the
     cost belongs to the instantiation — e.g. Adaptive.Kernel over S);
   - calls into [Budgets.instrumentation_roots] cost nothing (the
     observability shards are outside the model, and forcing a
     [Lazy_cell] builds the initial configuration);
   - unknown external calls cost nothing — sound *in this repo* because
     R1 confines raw atomics to the memory layer and its allowlisted
     submodules, so code outside the analyzed units cannot touch shared
     memory — unless they receive a closure that does, which is
     Unbounded (the callee may invoke it any number of times).

   Each [Budgets.rows] entry is then checked: certified within budget,
   violation (error), allowed-Unbounded (the reviewed allowlist), or
   budget/certificate mismatch warnings. *)

open Typedtree

(* ------------------------------------------------------------------ *)
(* Path helpers (same normalization as rules.ml, kept local so the two
   analyses stay independently readable)                                *)

let rec path_components p acc =
  match p with
  | Path.Pident id -> Ident.name id :: acc
  | Path.Pdot (p, s) -> path_components p (s :: acc)
  | Path.Papply (p, _) -> path_components p acc
  | Path.Pextra_ty (p, _) -> path_components p acc

let normalize = function
  | "Stdlib" :: rest -> rest
  | head :: rest
    when String.length head > 8 && String.sub head 0 8 = "Stdlib__" ->
    String.sub head 8 (String.length head - 8) :: rest
  | comps -> comps

let components p =
  List.map Cmt_unit.display_name (normalize (path_components p []))

(* ------------------------------------------------------------------ *)
(* The memory primitives                                               *)

let read_fns = [ "read"; "get" ]
let write_fns = [ "write"; "set" ]

let cas_fns =
  [ "cas"; "cas_same"; "compare_and_set"; "compare_exchange"; "exchange";
    "fetch_and_add"; "incr"; "decr" ]

(* Higher-order stdlib iteration: cost of the closure, O(n) times.      *)
let hof_roots = [ "Array"; "List" ]

let hof_fns =
  [ "map"; "mapi"; "map2"; "iter"; "iteri"; "iter2"; "init"; "fold_left";
    "fold_right"; "exists"; "for_all"; "filter"; "filter_map"; "concat_map";
    "find"; "find_opt"; "find_map" ]

(* ------------------------------------------------------------------ *)
(* Analysis state                                                      *)

type entry =
  | Known of Summary.t       (* per-call cost of a resolved local value *)
  | Rec_marker of bool ref   (* member of the let-rec group under
                                analysis; referencing it records that
                                the group really recurses *)

type env = (Ident.t * entry) list

type ctx = {
  budgets : Budgets.t;
  globals : (string list, Summary.t) Hashtbl.t;
  locs : (string list, string * int) Hashtbl.t;  (* op -> file, line *)
  changed : bool ref;            (* fixpoint progress flag *)
  source : string;               (* current unit's source path *)
  mods : string list;            (* display module path, outermost first *)
  fparams : string list;         (* functor parameters in scope *)
  aliases : (string * string list) list;
      (* local module name -> qualified target, e.g.
         F -> ["Boxed"; "Farray"] for [module F = Boxed.Farray] *)
}

let bound_is_zero = function Summary.Const 0 -> true | _ -> false

(* Local module aliases can chain; rewrite the head until stable. *)
let rec dealias ~fuel aliases comps =
  match comps with
  | head :: rest when fuel > 0 -> (
    match List.assoc_opt head aliases with
    | Some target -> dealias ~fuel:(fuel - 1) aliases (target @ rest)
    | None -> comps)
  | _ -> comps

(* The path of an identifier as the budgets speak it: display-named,
   Stdlib-stripped, local module aliases resolved ([module A = Atomic]
   makes [A.get] a raw atomic access). *)
let resolved ctx p = dealias ~fuel:5 ctx.aliases (components p)

let lookup_global ctx comps =
  match Hashtbl.find_opt ctx.globals comps with
  | Some s -> Some s
  | None -> (
    (* a path reached through a library's wrapper module carries one
       extra leading component (Boxed.Farray.update vs the registration
       key Farray.update) *)
    match comps with
    | _ :: (_ :: _ :: _ as tl) -> Hashtbl.find_opt ctx.globals tl
    | _ -> None)

(* One shared access through a memory module (the [Raw] cells, reached
   as [Unboxed.Raw.get] or [Boxed.Raw.get] through their library's
   wrapper) or raw Atomic; [Some Summary.zero] for their non-step
   operations (make, of_int, ...).  [None] when the root is not a
   memory module at all. *)
let classify_memory ctx comps =
  let is_memory root = List.mem root ctx.budgets.Budgets.memory_params in
  let comps =
    match comps with
    | _ :: (root :: _ :: _ as tl) when is_memory root -> tl
    | _ -> comps
  in
  match comps with
  | root :: (_ :: _ as rest) when is_memory root || String.equal root "Atomic"
    ->
    let fn = List.nth rest (List.length rest - 1) in
    if List.mem fn read_fns then Some Summary.one_read
    else if List.mem fn write_fns then Some Summary.one_write
    else if List.mem fn cas_fns then Some Summary.one_cas
    else Some Summary.zero
  | _ -> None

(* A call outside the model's accounting, also behind its library's
   wrapper ([Smem.Lazy_cell.force]). *)
let is_instrumentation ctx comps =
  List.exists
    (fun m -> List.mem m ctx.budgets.Budgets.instrumentation_roots)
    comps

(* ------------------------------------------------------------------ *)
(* The evaluator                                                       *)

(* Per-call summary of an identifier used as a callable, if we can
   resolve it: local binding, memory primitive, instrumentation,
   interprocedural table, functor-parameter barrier. *)
let rec ident_call_summary ctx env p =
  let local =
    match p with
    | Path.Pident id -> (
      match
        List.find_opt (fun (id', _) -> Ident.same id id') env
      with
      | Some (_, Known s) -> Some s
      | Some (_, Rec_marker hit) ->
        hit := true;
        Some Summary.zero
      | None -> None)
    | _ -> None
  in
  match local with
  | Some _ -> local
  | None -> (
    let comps = resolved ctx p in
    match classify_memory ctx comps with
    | Some _ as s -> s
    | None ->
      if is_instrumentation ctx comps then Some Summary.zero
      else
        match lookup_global ctx comps with
        | Some _ as s -> s
        | None -> (
          match comps with
          | root :: _ :: _ when List.mem root ctx.fparams ->
            Some
              (Summary.unbounded
                 (Printf.sprintf "call through functor parameter %s" root))
          | _ -> None))

(* Per-call summary of an expression in argument position, when it is a
   function value we can see through. *)
and arg_callable_summary ctx env e =
  if Compat.is_function e then
    Some (closure_summary ctx env e)
  else
    match e.exp_desc with
    | Texp_ident (p, _, _) -> ident_call_summary ctx env p
    | _ -> None

(* Cost of one *full* application: strip the entire curried chain.
   Case bodies are alternatives of one call (join); a [let] between two
   [fun]s is the optional-argument default desugaring ([fun ?(x = d) ->
   let x = match ... in fun y -> ...]) and must not hide the inner
   chain, so descend through it with the bindings in scope. *)
and closure_summary ctx env e =
  if Compat.is_function e then
    match Compat.function_bodies e [] with
    | [] -> Summary.zero
    | b :: bs ->
      List.fold_left
        (fun acc b -> Summary.alt acc (closure_summary ctx env b))
        (closure_summary ctx env b) bs
  else
    match e.exp_desc with
    | Texp_let (rf, vbs, body) ->
      let env', site_cost, _ = bind_group ctx env rf vbs in
      Summary.sum site_cost (closure_summary ctx env' body)
    | _ -> eval ctx env e

and eval ctx env e =
  match e.exp_desc with
  | Texp_ident _ | Texp_constant _ | Texp_instvar _ | Texp_unreachable ->
    Summary.zero
  | Texp_function _ ->
    (* building the closure is allocation, not a step; the body is
       charged where the closure is applied *)
    Summary.zero
  | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) ->
    eval_apply ctx env p args
  | Texp_apply (f, args) ->
    (* unknown function value: charge the operands; a memory-touching
       closure operand could run any number of times *)
    Summary.sum (eval ctx env f) (eval_args ctx env ~callee:"<expr>" args)
  | Texp_let (rf, vbs, body) ->
    let env', site_cost, _ = bind_group ctx env rf vbs in
    Summary.sum site_cost (eval ctx env' body)
  | Texp_sequence (a, b) -> Summary.sum (eval ctx env a) (eval ctx env b)
  | Texp_ifthenelse (c, t, eo) ->
    let arms =
      Summary.alt (eval ctx env t)
        (match eo with Some e -> eval ctx env e | None -> Summary.zero)
    in
    Summary.sum (eval ctx env c) arms
  | Texp_match (scrut, cases, _) ->
    Summary.sum (eval ctx env scrut) (eval_cases ctx env cases)
  | Texp_try (b, cases) ->
    Summary.sum (eval ctx env b) (eval_cases ctx env cases)
  | Texp_while (cond, body) ->
    let per_iter = Summary.sum (eval ctx env cond) (eval ctx env body) in
    if Summary.is_zero per_iter then Summary.zero
    else Summary.unbounded "while loop with shared accesses has no static trip bound"
  | Texp_for (_, _, lo, hi, _, body) ->
    let trips = for_trips ctx lo hi in
    Summary.sum
      (Summary.sum (eval ctx env lo) (eval ctx env hi))
      (Summary.repeat ~trips (eval ctx env body))
  | _ -> eval_children ctx env e

(* Trip count of [for i = lo to/downto hi]: exact for literal bounds,
   [Budgets.const_bounds] identifiers count as their declared constant,
   anything else is O(n) trips. *)
and for_trips ctx lo hi =
  let const_of e =
    match e.exp_desc with
    | Texp_constant (Asttypes.Const_int k) -> Some k
    | Texp_ident (p, _, _) -> (
      match List.rev (components p) with
      | last :: _ ->
        List.assoc_opt last ctx.budgets.Budgets.const_bounds
      | [] -> None)
    | _ -> None
  in
  match const_of lo, const_of hi with
  | Some a, Some b -> Summary.Const (max 0 (abs (b - a) + 1))
  | _ -> Summary.Linear

and eval_cases : 'k. ctx -> env -> 'k case list -> Summary.t =
  fun ctx env cases ->
  (* guards may all run before a branch is taken: add them; the selected
     right-hand sides are alternatives: join them *)
  List.fold_left
    (fun acc c ->
      let guard =
        match c.c_guard with Some g -> eval ctx env g | None -> Summary.zero
      in
      Summary.sum guard (Summary.alt acc (eval ctx env c.c_rhs)))
    Summary.zero cases

and eval_apply ctx env p args =
  let comps = resolved ctx p in
  if is_instrumentation ctx comps then
    (* excluded from the model; operands are still real code *)
    eval_plain_args ctx env args
  else
    match classify_memory ctx comps with
    | Some prim -> Summary.sum prim (eval_plain_args ctx env args)
    | None -> (
      match comps with
      | [ root; fn ] when List.mem root hof_roots && List.mem fn hof_fns ->
        (* stdlib iteration: operands once, the closure O(n) times *)
        let closure, operands =
          List.fold_left
            (fun (cl, ops) (_, argo) ->
              match argo with
              | None -> (cl, ops)
              | Some a -> (
                match arg_callable_summary ctx env a with
                | Some s -> (Summary.alt cl s, ops)
                | None -> (cl, Summary.sum ops (eval ctx env a))))
            (Summary.zero, Summary.zero)
            args
        in
        Summary.sum operands
          (Summary.repeat ~trips:Summary.Linear closure)
      | _ -> (
        match ident_call_summary ctx env p with
        | Some callee ->
          Summary.sum callee (eval_plain_args ctx env args)
        | None ->
          eval_args ctx env ~callee:(String.concat "." comps) args))

(* Operand cost of a call whose callee is understood. *)
and eval_plain_args ctx env args =
  List.fold_left
    (fun acc (_, argo) ->
      match argo with
      | Some a -> Summary.sum acc (eval ctx env a)
      | None -> acc)
    Summary.zero args

(* Operand cost of a call into unknown code: by the R1 containment
   argument the callee itself performs no steps, but a closure operand
   that does is out of our hands. *)
and eval_args ctx env ~callee args =
  List.fold_left
    (fun acc (_, argo) ->
      match argo with
      | None -> acc
      | Some a ->
        if Compat.is_function a then
          let s = closure_summary ctx env a in
          if Summary.is_zero s then acc
          else
            Summary.sum acc
              (Summary.unbounded
                 (Printf.sprintf
                    "closure with shared accesses passed to unknown %s"
                    callee))
        else Summary.sum acc (eval ctx env a))
    Summary.zero args

(* Fallback: sum the costs of the immediate sub-expressions (sound for
   every remaining form — tuples, records, constructors, field access,
   array literals, assertions...).  The default iterator enumerates the
   children; our override evaluates each child properly instead of
   descending blindly. *)
and eval_children ctx env e =
  let acc = ref Summary.zero in
  let dflt = Tast_iterator.default_iterator in
  let iter =
    { dflt with
      expr = (fun _self child -> acc := Summary.sum !acc (eval ctx env child));
      (* stay inside the expression language *)
      module_expr = (fun _ _ -> ());
      structure_item = (fun _ _ -> ()) }
  in
  dflt.expr iter e;
  !acc

(* Per-reference summary of a let-bound value: a function's per-call
   cost, an alias's resolved cost, zero for computed data (referencing
   an already-computed value is not a step). *)
and binding_ref_summary ctx env vb_expr =
  if Compat.is_function vb_expr then closure_summary ctx env vb_expr
  else
    match vb_expr.exp_desc with
    | Texp_ident (p, _, _) -> (
      match ident_call_summary ctx env p with
      | Some s -> s
      | None -> Summary.zero)
    | _ -> Summary.zero

(* Process one [let]/[let rec] group.  Returns the extended environment,
   the cost charged at the binding site (right-hand sides that run now),
   and the per-binding summaries for global registration. *)
and bind_group ctx env rf vbs =
  match rf with
  | Asttypes.Nonrecursive ->
    let site_cost = ref Summary.zero in
    let bindings =
      List.map
        (fun vb ->
          let s = binding_ref_summary ctx env vb.vb_expr in
          if not (Compat.is_function vb.vb_expr) then
            site_cost := Summary.sum !site_cost (eval ctx env vb.vb_expr);
          (Compat.pat_var_ident vb.vb_pat, s, vb.vb_loc))
        vbs
    in
    let env' =
      List.fold_left
        (fun env (ido, s, _) ->
          match ido with Some id -> (id, Known s) :: env | None -> env)
        env bindings
    in
    (env', !site_cost, bindings)
  | Asttypes.Recursive ->
    let hit = ref false in
    let ids = List.filter_map (fun vb -> Compat.pat_var_ident vb.vb_pat) vbs in
    let env_rec =
      List.fold_left (fun env id -> (id, Rec_marker hit) :: env) env ids
    in
    let bindings =
      List.map
        (fun vb ->
          hit := false;
          let per_iter = binding_ref_summary ctx env_rec vb.vb_expr in
          let recursed = !hit in
          let name =
            match Compat.pat_var_ident vb.vb_pat with
            | Some id -> Ident.name id
            | None -> "_"
          in
          let s =
            if not recursed then per_iter
            else
              match
                List.assoc_opt (ctx.mods @ [ name ])
                  ctx.budgets.Budgets.recursion
              with
              | Some trips ->
                if
                  bound_is_zero per_iter.Summary.reads
                  && bound_is_zero per_iter.Summary.cas
                then
                  Summary.unbounded
                    (Printf.sprintf
                       "recursion [%s] is depth-annotated but never \
                        re-reads shared state (no progress witness)"
                       name)
                else Summary.repeat ~trips per_iter
              | None ->
                if Summary.is_zero per_iter then per_iter
                else
                  Summary.unbounded
                    (Printf.sprintf
                       "recursion [%s] has no depth annotation in \
                        Lint.Budgets.recursion"
                       name)
          in
          (Compat.pat_var_ident vb.vb_pat, s, vb.vb_loc))
        vbs
    in
    let env' =
      List.fold_left
        (fun env (ido, s, _) ->
          match ido with Some id -> (id, Known s) :: env | None -> env)
        env bindings
    in
    (env', Summary.zero, bindings)

(* ------------------------------------------------------------------ *)
(* Structure walk: thread module path, functor parameters, aliases     *)

let register ctx key s loc =
  (match Hashtbl.find_opt ctx.globals key with
   | Some old when old = s -> ()
   | _ ->
     ctx.changed := true;
     Hashtbl.replace ctx.globals key s);
  let line = loc.Location.loc_start.Lexing.pos_lnum in
  Hashtbl.replace ctx.locs key (ctx.source, line)

let rec walk_module ctx env me =
  match me.mod_desc with
  | Tmod_structure str -> walk_items ctx env str.str_items
  | Tmod_functor (param, body) ->
    let ctx =
      match param with
      | Named (Some id, _, _) ->
        { ctx with fparams = Ident.name id :: ctx.fparams }
      | _ -> ctx
    in
    walk_module ctx env body
  | Tmod_constraint (me, _, _, _) -> walk_module ctx env me
  | _ -> ()

and walk_items ctx env = function
  | [] -> ()
  | item :: rest ->
    let ctx, env =
      match item.str_desc with
      | Tstr_value (rf, vbs) ->
        let env', _site_cost, bindings = bind_group ctx env rf vbs in
        List.iter
          (fun (ido, s, loc) ->
            match ido with
            | Some id -> register ctx (ctx.mods @ [ Ident.name id ]) s loc
            | None -> ())
          bindings;
        (ctx, env')
      | Tstr_module mb -> (walk_binding ctx env mb, env)
      | Tstr_recmodule mbs ->
        (List.fold_left (fun ctx mb -> walk_binding ctx env mb) ctx mbs, env)
      | Tstr_include incl ->
        (* include of an inline structure contributes to this module *)
        walk_module ctx env incl.incl_mod;
        (ctx, env)
      | _ -> (ctx, env)
    in
    walk_items ctx env rest

and walk_binding ctx env mb =
  let name = match mb.mb_name.txt with Some n -> n | None -> "_" in
  let rec shape me =
    match me.mod_desc with
    | Tmod_constraint (me, _, _, _) -> shape me
    | Tmod_ident (p, _) -> `Alias (components p)
    | Tmod_apply (f, _, _) -> (
      (* [module G = F (X)]: calls through G resolve to the functor
         body's summaries, which are abstract in its parameter *)
      match shape f with `Alias c -> `Alias c | _ -> `Opaque)
    | Tmod_structure _ | Tmod_functor _ -> `Descend
    | _ -> `Opaque
  in
  match shape mb.mb_expr with
  | `Alias target ->
    { ctx with aliases = (name, dealias ~fuel:5 ctx.aliases target)
                         :: ctx.aliases }
  | `Descend ->
    walk_module { ctx with mods = ctx.mods @ [ name ] } env mb.mb_expr;
    ctx
  | `Opaque -> ctx

(* ------------------------------------------------------------------ *)
(* Fixpoint over units and budget checking                             *)

let max_passes = 10

let compute ~budgets (units : Cmt_unit.t list) =
  let globals = Hashtbl.create 256 in
  let locs = Hashtbl.create 256 in
  let changed = ref true in
  let passes = ref 0 in
  while !changed && !passes < max_passes do
    changed := false;
    incr passes;
    List.iter
      (fun (u : Cmt_unit.t) ->
        let ctx =
          { budgets; globals; locs; changed;
            source = u.source;
            mods = [ u.modname ];
            fparams = [];
            aliases = [] }
        in
        walk_items ctx [] u.structure.str_items)
      units
  done;
  (globals, locs)

type status =
  | Certified          (* within budget, same asymptotic class *)
  | Improvable         (* certified strictly below the budget class *)
  | Allowed_unbounded  (* Unbounded, with a reviewed Unbounded budget *)
  | Tightenable        (* bounded, but the budget still says Unbounded *)
  | Violation          (* certificate exceeds the budget *)
  | Missing            (* budgeted operation not found *)

let status_name = function
  | Certified -> "certified"
  | Improvable -> "improvable"
  | Allowed_unbounded -> "allowed-unbounded"
  | Tightenable -> "tightenable"
  | Violation -> "violation"
  | Missing -> "missing"

type op_report = {
  op : string list;
  file : string;             (* "" when the operation was not found *)
  line : int;
  summary : Summary.t option;
  budget : Summary.bound;
  reason : string;
  status : status;
}

type report = {
  ops : op_report list;
  diagnostics : Diagnostic.t list;
}

let check ~budgets globals locs =
  let diags = ref [] in
  let ops =
    List.map
      (fun (row : Budgets.row) ->
        let qual = String.concat "." row.op in
        match Hashtbl.find_opt globals row.op with
        | None ->
          diags :=
            Diagnostic.at ~rule:"C1" ~file:"lib/lint/budgets.ml" ~line:1
              ~col:1
              (Printf.sprintf
                 "budgeted operation %s was not found in any scanned unit"
                 qual)
            :: !diags;
          { op = row.op; file = ""; line = 0; summary = None;
            budget = row.budget; reason = row.reason; status = Missing }
        | Some s ->
          let file, line =
            match Hashtbl.find_opt locs row.op with
            | Some (f, l) -> (f, l)
            | None -> ("", 0)
          in
          let total = Summary.total s in
          let status =
            match row.budget, total with
            | Summary.Unbounded _, Summary.Unbounded _ -> Allowed_unbounded
            | Summary.Unbounded _, _ -> Tightenable
            | _, _ when Summary.le total row.budget ->
              if Summary.rank total < Summary.rank row.budget then Improvable
              else Certified
            | _, _ -> Violation
          in
          (match status with
           | Violation ->
             diags :=
               Diagnostic.at ~rule:"C1" ~file ~line ~col:1
                 (Printf.sprintf
                    "%s: certified cost %s exceeds its budget %s [%s] \
                     (breakdown: %s)"
                    qual
                    (Summary.bound_to_string total)
                    (Summary.bound_to_string row.budget)
                    row.reason (Summary.to_string s))
               :: !diags
           | Tightenable ->
             diags :=
               Diagnostic.at ~severity:Diagnostic.Warn ~rule:"C1" ~file
                 ~line ~col:1
                 (Printf.sprintf
                    "%s: certified %s but budgeted Unbounded — tighten \
                     the budget in Lint.Budgets"
                    qual
                    (Summary.bound_to_string total))
               :: !diags
           | Improvable ->
             diags :=
               Diagnostic.at ~severity:Diagnostic.Warn ~rule:"C1" ~file
                 ~line ~col:1
                 (Printf.sprintf
                    "%s: certified %s, strictly below its budget %s — \
                     tighten the budget in Lint.Budgets"
                    qual
                    (Summary.bound_to_string total)
                    (Summary.bound_to_string row.budget))
               :: !diags
           | Certified | Allowed_unbounded | Missing -> ());
          { op = row.op; file; line; summary = Some s;
            budget = row.budget; reason = row.reason; status })
      budgets.Budgets.rows
  in
  { ops; diagnostics = List.sort_uniq Diagnostic.compare !diags }

let analyze ~budgets units =
  let globals, locs = compute ~budgets units in
  check ~budgets globals locs

let summaries ~budgets units =
  let globals, _ = compute ~budgets units in
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) globals []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let op_to_json (o : op_report) =
  let open Obs.Json_out in
  Obj
    ([ ("op", Str (String.concat "." o.op));
       ("file", Str o.file);
       ("line", Int o.line) ]
     @ (match o.summary with
        | None -> [ ("summary", Null) ]
        | Some s -> [ ("summary", Summary.to_json s);
                      ("total", Summary.bound_to_json (Summary.total s)) ])
     @ [ ("budget", Summary.bound_to_json o.budget);
         ("status", Str (status_name o.status));
         ("reason", Str o.reason) ])

let to_json ~units_scanned r =
  let open Obs.Json_out in
  let errors =
    List.filter (fun d -> d.Diagnostic.severity = Diagnostic.Error)
      r.diagnostics
  in
  Obj
    [ ("schema", Str "lint-cost/v1");
      ("units_scanned", Int units_scanned);
      ("ops", List (List.map op_to_json r.ops));
      ("violations", Int (List.length errors));
      ("warnings",
       Int (List.length r.diagnostics - List.length errors));
      ("diagnostics", List (List.map Diagnostic.to_json r.diagnostics)) ]

let to_human ~units_scanned r =
  let b = Buffer.create 1024 in
  List.iter
    (fun d ->
      Buffer.add_string b (Diagnostic.to_human d);
      Buffer.add_char b '\n')
    r.diagnostics;
  List.iter
    (fun o ->
      Buffer.add_string b
        (Printf.sprintf "cost: %-40s %-14s budget %-14s %s\n"
           (String.concat "." o.op)
           (match o.summary with
            | Some s -> Summary.bound_to_string (Summary.total s)
            | None -> "?")
           (Summary.bound_to_string o.budget)
           (status_name o.status)))
    r.ops;
  let bad =
    List.length
      (List.filter
         (fun o -> o.status = Violation || o.status = Missing)
         r.ops)
  in
  Buffer.add_string b
    (Printf.sprintf
       "cost: %d unit(s) scanned, %d operation(s) budgeted, %d problem(s)\n"
       units_scanned (List.length r.ops) bad);
  Buffer.contents b

let to_costs_md r =
  let b = Buffer.create 2048 in
  Buffer.add_string b
    "# COSTS — certified per-operation shared-access bounds\n\n\
     Generated by `dune exec bin/lint.exe -- --cost --costs-md COSTS.md` \
     (rule C1).\n\
     A step is one shared-memory access (a get/set/CAS of a `Raw` cell, \
     which is one operation of its memory, or an allowlisted raw \
     atomic); allocation, private state and forcing a memoized tree \
     node are free, as in the paper's model.  CI diffs this file: a \
     class regression fails the build.\n\n\
     | operation | reads | writes | cas | total | budget | status |\n\
     |---|---|---|---|---|---|---|\n";
  List.iter
    (fun o ->
      let cell f =
        match o.summary with
        | Some s -> Summary.bound_to_string (f s)
        | None -> "?"
      in
      Buffer.add_string b
        (Printf.sprintf "| `%s` | %s | %s | %s | %s | %s | %s |\n"
           (String.concat "." o.op)
           (cell (fun s -> s.Summary.reads))
           (cell (fun s -> s.Summary.writes))
           (cell (fun s -> s.Summary.cas))
           (cell (fun s -> Summary.total s))
           (Summary.bound_to_string o.budget)
           (status_name o.status)))
    r.ops;
  Buffer.add_string b
    "\nUnbounded budgets are the reviewed allowlist (deliberately \
     non-wait-free baselines); their reasons live in \
     `lib/lint/budgets.ml`.\n";
  (* The dial family's per-point refinement.  The static rows above
     certify the worst case over the dial (read Linear, update Log);
     the table below is Theorem 1's frontier point by point, generated
     from Budgets.dial_read_budget/dial_update_budget and enforced
     dynamically by the test_cost differential. *)
  Buffer.add_string b
    "\n## Dial family (Theorem 1's frontier, per dial point)\n\n\
     `Dial_counter`/`Dial_maxreg` group the N leaves into f blocks of \
     ceil(N/f); read collects the f block roots, an update propagates \
     only inside its own block.  Per-dial budgets (f values shown at \
     N = 64):\n\n\
     | dial | f(N) | f @ N=64 | read / read_max | increment / write_max \
     |\n|---|---|---|---|---|\n";
  let n = 64 in
  let rec lg d v = if v >= n then d else lg (d + 1) (2 * v) in
  let rec isqrt k = if k * k >= n then k else isqrt (k + 1) in
  List.iter
    (fun (dial, fsym, f) ->
      Buffer.add_string b
        (Printf.sprintf "| `%s` | %s | %d | %s | %s |\n" dial fsym f
           (Summary.bound_to_string (Budgets.dial_read_budget ~f ~n))
           (Summary.bound_to_string (Budgets.dial_update_budget ~f ~n))))
    [ ("f1", "1", 1);
      ("flog", "ceil(log2 N)", lg 0 1);
      ("fsqrt", "ceil(sqrt N)", isqrt 0);
      ("fn", "N", n) ];
  Buffer.add_string b
    "\nThe `f1` point coincides with `Farray_counter` (read O(1), \
     update O(log N)) and `fn` with `Naive_counter` (read O(N), update \
     O(1)); `flog` and `fsqrt` are the interior points the dial \
     exists to exercise.  The dynamic differential (test/test_cost.ml) \
     measures every point against these envelopes.\n";
  Buffer.contents b
