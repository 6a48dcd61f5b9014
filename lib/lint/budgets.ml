(* The declared step-complexity budgets, as data — the static analogue of
   EXPERIMENTS.md's E1-E3 tables.  One row per (module, operation): the
   paper's bound for that operation, which lib/lint/cost.ml must certify
   the implementation stays within.  Growing or loosening a row is a
   reviewed change to this file, not an edit at the violation site.
   An update's metered body ([write_max_metered], ...) has no row: the
   plain op wraps it, so the plain op's row certifies the body.

   The auxiliary tables are the analysis's trusted annotations:

   - [recursion]: self-recursive functions whose iteration count is
     bounded by the data structure's geometry (a leaf-to-root walk is
     O(log n) deep, the Afek scan retries at most N+1 times).  The
     analysis multiplies the per-iteration cost by the declared class —
     but only if the iteration re-reads shared state (the semantic R2
     witness); a recursion that cannot observe other processes' steps is
     reported Unbounded regardless of its annotation.  Unannotated
     recursion with a nonzero per-iteration cost is Unbounded.

   - [const_bounds]: identifiers that appear as [for]-loop limits and are
     compile-time constants of known magnitude ([refreshes] is 2: the
     double-refresh).  Any other non-literal loop limit is classified as
     O(n) trips.

   - [memory_params]: the memory modules: [Raw], the cells every
     structure is written against; [Raw.get/set/cas] (and read/write/
     compare_and_set) is one shared access.  Calls through a functor
     parameter are Unbounded (the cost belongs to the instantiation).

   - [instrumentation_roots]: call targets excluded from the model's
     accounting: single-writer observability shards, which the paper's
     structures do not contain, and [Lazy_cell], whose [force] builds a
     node of B1's lazy tree — construction, free as allocation is, since
     the model holds the whole tree from the start. *)

type row = {
  op : string list;          (* qualified display path of the operation *)
  budget : Summary.bound;    (* declared bound on total shared accesses *)
  reason : string;           (* the paper/source of the bound, or why
                                Unbounded is acceptable *)
}

type t = {
  rows : row list;
  recursion : (string list * Summary.bound) list;
  const_bounds : (string * int) list;
  memory_params : string list;
  instrumentation_roots : string list;
}

let row op budget reason = { op; budget; reason }

let default =
  { rows =
      [ (* max registers (E1 / Theorem 6) *)
        row [ "Algorithm_a"; "read_max" ] (Const 2)
          "Algorithm A ReadMax: a single read of the root (paper sec. 5)";
        row [ "Algorithm_a"; "write_max" ] Log
          "Algorithm A WriteMax: leaf write + double-refresh propagation, \
           O(min(log N, log v))";
        row [ "Aac_maxreg"; "read_max" ] Log
          "AAC bounded max register: switch descent, O(log M)";
        row [ "Aac_maxreg"; "write_max" ] Log
          "AAC bounded max register: switch descent, O(log M)";
        row [ "B1_maxreg"; "read_max" ] Log
          "AAC-over-B1 unbounded register: O(log vmax) switch probes \
           (forcing a lazy node is construction, not a step)";
        row [ "B1_maxreg"; "write_max" ] Log
          "AAC-over-B1 unbounded register: O(log v) switch probes \
           (forcing a lazy node is construction, not a step)";
        row [ "Cas_maxreg"; "read_max" ] (Const 1)
          "CAS-loop register ReadMax: one read";
        row [ "Cas_maxreg"; "write_max" ]
          (Unbounded "lock-free CAS retry loop")
          "deliberately not wait-free: retries bounded only by concurrent \
           successful writers (the Theorem 3 adversary drives this to \
           Theta(K)) — the baseline Algorithm A exists to beat";
        row [ "Cas_maxreg"; "write_once" ] (Const 2)
          "single attempt of the retry loop: one read, one CAS";
        (* counters (E2 / Theorem 1 & Corollary 2) *)
        row [ "Naive_counter"; "increment" ] (Const 2)
          "single-writer cell bump: read own cell + write";
        row [ "Naive_counter"; "read" ] Linear "collect of all N cells";
        row [ "Aac_counter"; "increment" ] Polylog
          "AAC counter increment: O(log N) ancestors, each a O(log B) \
           WriteMax — O(log N * log B)";
        row [ "Aac_counter"; "read" ] Log
          "AAC counter read: one ReadMax of the root, O(log B)";
        row [ "Farray_counter"; "increment" ] Log
          "f-array counter increment: leaf bump + propagation, O(log N)";
        row [ "Farray_counter"; "read" ] (Const 2)
          "f-array counter read: one read of the root";
        (* the tradeoff-dial family (Theorem 1's frontier).  The static
           rows certify the worst case over the dial — read = Theta(f)
           <= N block-root reads, increment = O(log(N/f)) <= O(log N) —
           and the per-dial refinement (Const/Log/Sqrt/Linear as f
           moves) is [dial_read_budget]/[dial_update_budget] below,
           enforced dynamically by the test_cost differential. *)
        row [ "Dial_counter"; "read" ] Linear
          "dial counter read: collect of the f <= N block roots";
        row [ "Dial_counter"; "increment" ] Log
          "dial counter increment: in-block propagation, O(log(N/f)) \
           <= O(log N)";
        row [ "Dial_maxreg"; "read_max" ] Linear
          "dial max register ReadMax: collect of the f <= N block roots";
        row [ "Dial_maxreg"; "write_max" ] Log
          "dial max register WriteMax: in-block propagation, \
           O(log(N/f)) <= O(log N)";
        (* f-array (Theorem 1's optimal point) *)
        row [ "Farray"; "read" ] (Const 1)
          "f-array read: a single read of the root";
        row [ "Farray"; "read_leaf" ] (Const 1) "single-writer leaf read";
        row [ "Farray"; "update" ] Log
          "f-array update: leaf write + double-refresh propagation, \
           O(log N)";
        (* tree propagation primitive *)
        row [ "Propagate"; "refresh" ] (Const 4)
          "one refresh: read node + read both children + CAS = 4 events";
        row [ "Propagate"; "propagate" ] Log
          "leaf-to-root walk, 2 refreshes per ancestor: O(depth)";
        (* snapshots (E3) *)
        row [ "Double_collect"; "update" ] (Const 2)
          "double-collect update: read own segment's seq + write";
        row [ "Double_collect"; "collect" ] Linear
          "one collect: read all N segments";
        row [ "Double_collect"; "scan" ]
          (Unbounded "collect-until-quiescent retry loop")
          "obstruction-free only: a scan concurrent with an unbounded \
           update stream never terminates (bounded in code by \
           max_collects purely to keep adversarial experiments finite)";
        row [ "Afek_snapshot"; "collect" ] Linear
          "one collect: read all N segments";
        row [ "Afek_snapshot"; "scan" ] Quadratic
          "at most N+1 collects of N segments before a double-clean or a \
           borrowed embedded scan: O(N^2)";
        row [ "Afek_snapshot"; "update" ] Quadratic
          "update embeds a full scan: O(N^2)";
        row [ "Farray_snapshot"; "update" ] Log
          "f-array snapshot update: leaf write + propagation, O(log N)";
        row [ "Farray_snapshot"; "scan" ] (Const 1)
          "f-array snapshot scan: a single read of the root" ];
    recursion =
      [ (* leaf-to-root walks: depth of a complete/B1 tree *)
        ([ "Propagate"; "walk" ], Summary.Log);
        ([ "Aac_counter"; "up" ], Summary.Log);
        (* switch-tree descents: depth of the AAC / B1 partition tree *)
        ([ "Aac_maxreg"; "read" ], Summary.Log);
        ([ "Aac_maxreg"; "write" ], Summary.Log);
        ([ "B1_maxreg"; "read" ], Summary.Log);
        ([ "B1_maxreg"; "write" ], Summary.Log);
        (* the Afek scan: a process observed moving twice yields a borrowed
           embedded scan, so at most N+1 collects *)
        ([ "Afek_snapshot"; "loop" ], Summary.Linear) ];
    const_bounds = [ ("refreshes", 2) ];
    memory_params = [ "Raw" ];
    instrumentation_roots = [ "Obs"; "Metrics"; "Lazy_cell" ] }

let find t op = List.find_opt (fun r -> r.op = op) t.rows

(* {1 Dial-parametric budgets}

   The static rows above certify the dial family's worst case over all
   dial points; these refine per point.  [f] and [n] are raw ints (the
   dial's width and the process count) so the lint library needs no
   dependency on the structure libraries — callers pass
   [Treeprim.Dial.width ~n dial].  The classes are exactly Theorem 1's
   frontier: read Theta(f), update O(log(N/f)); at the extremes they
   collapse to the Farray_counter / Naive_counter rows. *)

let dial_read_budget ~f ~n =
  if f >= n then Summary.Linear
  else if f <= 1 then Summary.Const 2
  else
    (* ceil_log2 n, locally: Log covers the F_log point, Sqrt the rest
       of the sublinear interior (f = ceil(sqrt n) in particular) *)
    let rec lg d v = if v >= n then d else lg (d + 1) (2 * v) in
    if f <= lg 0 1 then Summary.Log else Summary.Sqrt

let dial_update_budget ~f ~n =
  if f >= n then Summary.Const 2 (* single-leaf block: read + write *)
  else Summary.Log
