module Unboxed = Unboxed.Algorithm_a
