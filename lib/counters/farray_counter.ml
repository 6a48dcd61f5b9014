module Unboxed = Unboxed.Farray_counter
