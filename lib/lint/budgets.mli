(** The declared step-complexity budgets (the static analogue of the
    E1-E3 tables) plus the cost analysis's trusted annotations.  Growing
    or loosening an entry is a reviewed change to budgets.ml. *)

type row = {
  op : string list;        (** qualified display path, e.g.
                               [["Farray"; "update"]] *)
  budget : Summary.bound;  (** declared bound on total shared accesses *)
  reason : string;         (** source of the bound, or why [Unbounded]
                               is acceptable (the allowlist entry) *)
}

type t = {
  rows : row list;
  recursion : (string list * Summary.bound) list;
  (** self-recursive functions with a geometry-bounded iteration count;
      trusted only when each iteration re-reads shared state *)
  const_bounds : (string * int) list;
  (** identifiers usable as [for]-loop limits with a known constant
      magnitude (e.g. [refreshes] = 2) *)
  memory_params : string list;
  (** memory modules: functor-parameter names instantiated with
      MEMORY/MEMORY_INT, and [Raw] (the cells of lib/structures) *)
  instrumentation_roots : string list;
  (** call roots excluded from the model's accounting *)
}

val default : t
val find : t -> string list -> row option

(** {1 Dial-parametric budgets}

    Per-dial refinement of the [Dial_counter]/[Dial_maxreg] static rows
    (which certify the worst case over the dial): read Theta(f), update
    O(log(N/f)).  [f] is the dial's width ({!Treeprim.Dial.width}) and
    [n] the process count — raw ints, so lint does not depend on the
    structure libraries.  Enforced dynamically by the test_cost
    differential and rendered as COSTS.md's dial table. *)

val dial_read_budget : f:int -> n:int -> Summary.bound
val dial_update_budget : f:int -> n:int -> Summary.bound
