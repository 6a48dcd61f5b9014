(* The unboxed native backend: base objects are [int Atomic.t], so read,
   write and CAS move immediate ints only — no allocation, no structural
   comparison, no pointer chase through a Simval box.  [Bot] is encoded as
   the sentinel [min_int].

   [Padded] widens each atomic's heap block to two cache lines so that
   arrays of adjacent base objects (f-array leaves, Algorithm A tree nodes,
   per-domain counters) never share a line between domains.  An
   [int Atomic.t] is an ordinary one-field heap block and the Atomic
   primitives operate on field 0 whatever the block size, so a wider block
   with the value in field 0 behaves identically — this is the same trick
   as multicore-magic's [copy_as_padded], done locally to avoid the
   dependency.  The padding fields hold immediate ints, so the GC never
   scans garbage pointers. *)

type t = int Atomic.t

let bot = min_int

let make ?name init =
  ignore name;
  Atomic.make init

(* 64-byte lines, 8-byte words.  A [2*words_per_line - 1]-field block spans
   at least one full line past the header at any alignment, so no two
   padded atomics can fall on the same line. *)
let words_per_line = 8
let padded_words = (2 * words_per_line) - 1

module Padded = struct
  type t = int Atomic.t

  let make ?name init =
    ignore name;
    let src = Obj.repr (Atomic.make init) in
    let blk = Obj.new_block (Obj.tag src) padded_words in
    Obj.set_field blk 0 (Obj.field src 0);
    for i = 1 to padded_words - 1 do
      Obj.set_field blk i (Obj.repr 0)
    done;
    (Obj.obj blk : int Atomic.t)

  let read = Atomic.get
  let write = Atomic.set
  let cas obj ~expected ~desired = Atomic.compare_and_set obj expected desired
end
