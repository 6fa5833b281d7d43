type t =
  (* The stored word is [Splitmix.mix seed], not the raw seed:
     [mix_seeded] re-derives it on every call, so premixing once at
     construction halves the per-hash work while producing bit-identical
     hash values. *)
  | Mixer of int64 (* premixed seed for SplitMix finalizer *)
  | Multiply_shift of int64 * int64 (* odd multiplier a, offset b *)

let create ~seed = Mixer (Splitmix.mix seed)

let of_rng rng = Mixer (Splitmix.mix (Rng.int64 rng))

let multiply_shift rng =
  let a = Int64.logor (Rng.int64 rng) 1L in
  let b = Rng.int64 rng in
  Multiply_shift (a, b)

(* [Splitmix.mix], repeated here so that the whole hash is inlined into
   each entry point below.  The dev profile compiles with [-opaque],
   which stops inlining across modules: a call to [Splitmix.mix] would
   return a boxed [int64] on every item.  Inlined, the word lives in a
   register until the entry point turns it into a native int. *)
let[@inline] mix x =
  let x = Int64.logxor x (Int64.shift_right_logical x 30) in
  let x = Int64.mul x 0xBF58476D1CE4E5B9L in
  let x = Int64.logxor x (Int64.shift_right_logical x 27) in
  let x = Int64.mul x 0x94D049BB133111EBL in
  Int64.logxor x (Int64.shift_right_logical x 31)

let[@inline] word h x =
  match h with
  | Mixer premixed -> mix (Int64.add premixed x)
  | Multiply_shift (a, b) ->
    (* (a*x + b) over Z/2^64; the high bits are the universal ones, so we
       swap halves to make low bits usable by callers too. *)
    let v = Int64.add (Int64.mul a x) b in
    Int64.logor (Int64.shift_right_logical v 32) (Int64.shift_left v 32)

let hash64 h x = word h x

let hash h x = word h (Int64.of_int x)

let low_bits h x = Int64.to_int (word h (Int64.of_int x))

let to_range h ~buckets x =
  if buckets <= 0 then invalid_arg "Universal.to_range: buckets must be > 0";
  (* Use the top 62 bits to stay within OCaml's native int range. *)
  let w = word h (Int64.of_int x) in
  Int64.to_int (Int64.shift_right_logical w 2) mod buckets

let bucket_rank h ~log2m x =
  if log2m < 1 || log2m > 56 then
    invalid_arg "Universal.bucket_rank: log2m must be in [1, 56]";
  let w = word h (Int64.of_int x) in
  let shift = 64 - log2m in
  let j = Int64.to_int (Int64.shift_right_logical w shift) in
  (* The low [shift <= 63] bits fit a native int.  When they are all
     zero the 64-bit count was [>= shift] and the cap at 63 gives the 63
     returned here. *)
  let rest = Int64.to_int w land ((1 lsl shift) - 1) in
  let rank =
    if rest = 0 then 63
    else
      let r = 1 + Bits.trailing_zeros_int rest in
      if r > 63 then 63 else r
  in
  (j lsl 6) lor rank
