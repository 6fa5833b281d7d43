(* Branchless-ish trailing-zero count via de Bruijn would be overkill here;
   a byte-stepped loop is fast enough and obviously correct. *)
let trailing_zeros w =
  if w = 0L then 64
  else begin
    let w = ref w and n = ref 0 in
    while Int64.logand !w 0xFFL = 0L do
      w := Int64.shift_right_logical !w 8;
      n := !n + 8
    done;
    while Int64.logand !w 1L = 0L do
      w := Int64.shift_right_logical !w 1;
      incr n
    done;
    !n
  end

let trailing_zeros_int = Bits.trailing_zeros_int

(* [Universal.low_bits] is exactly the low 63 bits of the hash.  When any
   of them is set, the trailing-zero count of the full word equals that
   of the truncated word (< 63).  When all are zero the full count is 63
   or 64, and the cap makes both answers 63 — so this is bit for bit
   [min 63 (trailing_zeros (Universal.hash h v))]. *)
let level h v =
  let low = Universal.low_bits h v in
  if low = 0 then 63 else trailing_zeros_int low
