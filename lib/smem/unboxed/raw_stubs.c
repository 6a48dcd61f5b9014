/* Raw.cas_same for the unboxed compile: CAS(v, v) as one sequentially
   consistent load, true iff the cell holds [expected].  CAS(v, v)
   leaves the cell unchanged whether it succeeds or fails, so the load
   answers as the CAS would at the same point of the order, without the
   locked write %atomic_cas performs once a second domain runs.  Cells
   hold immediate ints, so comparing tagged words compares values. */

#include <caml/mlvalues.h>

value rut_raw_cas_same(value cell, value expected)
{
  return Val_bool(atomic_load(Op_atomic_val(cell)) == expected);
}
