(* Byte-stepped trailing-zero count on a native int (63 significant
   bits).  All operations are unboxed machine arithmetic, so callers on
   sketch update paths pay no Int64 allocation.  [lsr] is a logical
   shift, so the sign bit of a negative word is treated as an ordinary
   data bit. *)
let trailing_zeros_int w =
  if w = 0 then 63
  else begin
    let w = ref w and n = ref 0 in
    while !w land 0xFF = 0 do
      w := !w lsr 8;
      n := !n + 8
    done;
    while !w land 1 = 0 do
      w := !w lsr 1;
      incr n
    done;
    !n
  end
