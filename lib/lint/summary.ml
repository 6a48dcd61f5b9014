(* The cost lattice of the step-complexity certifier (rule C1).

   A [bound] classifies how many shared-memory accesses (MEMORY or [Raw]
   read/write/cas, or the raw-atomic sites the R1 allowlist admits) an
   expression performs, as a function of the structure size n
   (number of processes, register bound, or tree width — whichever the
   paper's bound for that operation is stated in):

     Const k  <  Log  <  Polylog  <  Sqrt  <  Linear  <  Quadratic  <  Unbounded

   [Const k] is exact ("at most k accesses, always"); the asymptotic
   classes absorb constants.  [Polylog] covers O(log^c n) for any fixed c
   (the AAC counter's O(log N * log B) increment lands here); [Sqrt] is
   O(sqrt n) — the interior of Theorem 1's frontier, where the dial
   family's f = ceil(sqrt N) read lands (sqrt n dominates every polylog,
   hence its place above [Polylog]); [Unbounded]
   carries a witness string saying which loop or call defeated the
   analysis — a lock-free retry loop, an unannotated recursion, a closure
   escaping into unanalyzed code.

   The lattice is deliberately coarse: it must only be SOUND (never
   classify below the true cost) and must separate the paper's claims
   (O(1) reads vs O(log n) updates vs the not-wait-free baselines). *)

type bound =
  | Const of int
  | Log
  | Polylog
  | Sqrt
  | Linear
  | Quadratic
  | Unbounded of string

let rank = function
  | Const _ -> 0
  | Log -> 1
  | Polylog -> 2
  | Sqrt -> 3
  | Linear -> 4
  | Quadratic -> 5
  | Unbounded _ -> 6

let le a b =
  match a, b with
  | Const x, Const y -> x <= y
  | _ -> rank a <= rank b

(* Branch combination: the worst branch wins. *)
let join a b =
  match a, b with
  | Const x, Const y -> Const (max x y)
  | _ -> if rank a >= rank b then a else b

(* Sequential composition.  Constants add exactly; an asymptotic class
   absorbs anything of lower or equal rank (O(log n) + O(log n) is still
   O(log n)). *)
let add a b =
  match a, b with
  | Const x, Const y -> Const (x + y)
  | Unbounded w, _ | _, Unbounded w -> Unbounded w
  | _ -> if rank a >= rank b then a else b

(* Loop composition: [trips] iterations of a [body].  Zero-cost bodies
   stay zero whatever the trip count (a pure loop takes no shared steps).
   Products that would exceed the O(n^2) top of the bounded lattice fall
   off to [Unbounded] rather than silently rounding down. *)
let scale ~trips body =
  match trips, body with
  | _, Const 0 -> Const 0
  | Const 0, _ -> Const 0
  | Unbounded w, _ | _, Unbounded w -> Unbounded w
  | Const k, Const c -> Const (k * c)
  | Const _, b -> b
  | t, Const _ -> t
  | (Log | Polylog), (Log | Polylog) -> Polylog
  (* sqrt n * sqrt n = n; sqrt n * polylog n = o(n) — both Linear *)
  | Sqrt, (Log | Polylog | Sqrt) | (Log | Polylog), Sqrt -> Linear
  | (Log | Polylog), Linear | Linear, (Log | Polylog) -> Quadratic
  | Sqrt, Linear | Linear, Sqrt -> Quadratic
  | Linear, Linear -> Quadratic
  | Quadratic, _ | _, Quadratic ->
    Unbounded "product of bounds exceeds the O(n^2) lattice"

let bound_to_string = function
  | Const k -> Printf.sprintf "<= %d" k
  | Log -> "O(log n)"
  | Polylog -> "O(log^2 n)"
  | Sqrt -> "O(sqrt n)"
  | Linear -> "O(n)"
  | Quadratic -> "O(n^2)"
  | Unbounded w -> Printf.sprintf "unbounded (%s)" w

let class_name = function
  | Const _ -> "const"
  | Log -> "log"
  | Polylog -> "polylog"
  | Sqrt -> "sqrt"
  | Linear -> "linear"
  | Quadratic -> "quadratic"
  | Unbounded _ -> "unbounded"

let bound_to_json b =
  let base = [ ("class", Obs.Json_out.Str (class_name b)) ] in
  Obs.Json_out.Obj
    (match b with
     | Const k -> base @ [ ("k", Obs.Json_out.Int k) ]
     | Unbounded w -> base @ [ ("witness", Obs.Json_out.Str w) ]
     | _ -> base)

(* The concrete envelope behind each class, used by the static-vs-Memsim
   differential (test/test_cost.ml): a dynamic solo-operation step count
   observed on the simulator must never exceed [envelope ~n] of the
   statically certified class.  The constants are the certificate's
   explicit big-O constants: every per-level/per-segment cost in this
   repo is at most 16 events (a double refresh is 8), and the +2 absorbs
   roots and off-by-one leaf levels. *)
let envelope ~n b =
  let lg n =
    let rec go acc v = if v <= 1 then acc else go (acc + 1) (v lsr 1) in
    go 0 n
  in
  match b with
  | Const k -> Some k
  | Log -> Some (16 * (lg n + 2))
  | Polylog -> Some (16 * (lg n + 2) * (lg n + 2))
  | Sqrt ->
    let rec isqrt k = if k * k >= n then k else isqrt (k + 1) in
    Some (16 * (isqrt 0 + 2))
  | Linear -> Some (8 * (n + 2))
  | Quadratic -> Some (8 * (n + 2) * (n + 2))
  | Unbounded _ -> None

(* ------------------------------------------------------------------ *)
(* Per-function summaries: the three access kinds tracked separately so
   the report can say "O(log n) CAS, O(log n) reads, O(1) writes" for a
   propagating update. *)

type t = { reads : bound; writes : bound; cas : bound }

let zero = { reads = Const 0; writes = Const 0; cas = Const 0 }
let one_read = { zero with reads = Const 1 }
let one_write = { zero with writes = Const 1 }
let one_cas = { zero with cas = Const 1 }

let sum a b =
  { reads = add a.reads b.reads;
    writes = add a.writes b.writes;
    cas = add a.cas b.cas }

let alt a b =
  { reads = join a.reads b.reads;
    writes = join a.writes b.writes;
    cas = join a.cas b.cas }

let repeat ~trips s =
  { reads = scale ~trips s.reads;
    writes = scale ~trips s.writes;
    cas = scale ~trips s.cas }

let total s = add s.reads (add s.writes s.cas)

let is_zero s = total s = Const 0

(* An unbounded summary with every component carrying the witness, so
   [total] reports it whichever component is inspected. *)
let unbounded w = { reads = Unbounded w; writes = Unbounded w; cas = Unbounded w }

let to_string s =
  Printf.sprintf "reads %s, writes %s, cas %s"
    (bound_to_string s.reads) (bound_to_string s.writes)
    (bound_to_string s.cas)

let to_json s =
  Obs.Json_out.Obj
    [ ("reads", bound_to_json s.reads);
      ("writes", bound_to_json s.writes);
      ("cas", bound_to_json s.cas);
      ("total", bound_to_json (total s)) ]
