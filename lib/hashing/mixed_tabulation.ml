let derived_chars = 4

type t = {
  value : int64 array array; (* 8 tables of 256: value-word contribution *)
  derive : int64 array array; (* 8 tables of 256: derived-character word *)
  mix : int64 array array; (* derived_chars tables of 256 *)
}

let create rng =
  let table () = Array.init 256 (fun _ -> Rng.int64 rng) in
  {
    value = Array.init 8 (fun _ -> table ());
    derive = Array.init 8 (fun _ -> table ());
    mix = Array.init derived_chars (fun _ -> table ());
  }

(* Inlined into every entry point, so that [split] keeps the word in a
   register until it returns a native int (see [Universal.word]). *)
let[@inline] word t x =
  let v = ref 0L and d = ref 0L in
  for byte = 0 to 7 do
    let idx =
      Int64.to_int (Int64.logand (Int64.shift_right_logical x (8 * byte)) 0xFFL)
    in
    v := Int64.logxor !v (Array.unsafe_get (Array.unsafe_get t.value byte) idx);
    d := Int64.logxor !d (Array.unsafe_get (Array.unsafe_get t.derive byte) idx)
  done;
  for c = 0 to derived_chars - 1 do
    let idx =
      Int64.to_int (Int64.logand (Int64.shift_right_logical !d (8 * c)) 0xFFL)
    in
    v := Int64.logxor !v (Array.unsafe_get (Array.unsafe_get t.mix c) idx)
  done;
  !v

let hash64 t x = word t x

let hash t x = word t (Int64.of_int x)

let split t x =
  let h = word t (Int64.of_int x) in
  let high = Int64.to_int (Int64.shift_right_logical h 32) in
  let low = Int64.to_int h land 0xFFFFFFFF in
  let level = if low = 0 then 32 else Bits.trailing_zeros_int low in
  (high lsl 6) lor level

let concentrated_buckets ~alpha ~delta =
  if alpha <= 0.0 || alpha >= 1.0 then
    invalid_arg "Mixed_tabulation.concentrated_buckets: alpha must be in (0,1)";
  if delta <= 0.0 || delta >= 1.0 then
    invalid_arg "Mixed_tabulation.concentrated_buckets: delta must be in (0,1)";
  let base = (0.78 /. alpha) ** 2.0 in
  let m =
    int_of_float (Float.ceil (base *. Float.max 1.0 (Float.log (1.0 /. delta))))
  in
  max 16 m
