(* The estimator statistic is integer-valued: the sum of the bitmaps'
   lowest-zero indices, the number of empty bitmaps, and (Mle families
   only) the histogram of lowest-zero values.  Every register write goes
   through this module and updates it, so an estimate never rescans the
   bitmaps and reads the same integers the scan would have summed. *)
type 'fam t = {
  fam : 'fam;
  bitmaps : Fm_bitmap.t array;
  hist : int array; (* 65 slots under Mle, [||] under Classic *)
  mutable sum : int;
  mutable empty : int;
}

(* Every bitmap empty, every lowest zero 0. *)
let create fam ~mle ~m =
  let hist = if mle then Array.init 65 (fun z -> if z = 0 then m else 0) else [||] in
  let bitmaps = Array.init m (fun _ -> Fm_bitmap.create ()) in
  { fam; bitmaps; hist; sum = 0; empty = m }

let copy t =
  { t with bitmaps = Array.map Fm_bitmap.copy t.bitmaps; hist = Array.copy t.hist }

(* One bitmap's lowest zero moved from [z0] to [z1]. *)
let[@inline] move t z0 z1 =
  t.sum <- t.sum + z1 - z0;
  let hist = t.hist in
  if Array.length hist > 0 then begin
    Array.unsafe_set hist z0 (Array.unsafe_get hist z0 - 1);
    Array.unsafe_set hist z1 (Array.unsafe_get hist z1 + 1)
  end

(* Bit [lvl] was just set in [bm]: a lowest zero now above [lvl] was
   [lvl] before, one at or below it did not move; and the bitmap was
   empty iff [lvl] is now its only bit. *)
let note_set t bm lvl =
  let z = Fm_bitmap.lowest_zero bm in
  if z > lvl then move t lvl z;
  if Fm_bitmap.holds_only bm lvl then t.empty <- t.empty - 1

let[@inline] add_level t j lvl =
  let bm = Array.unsafe_get t.bitmaps j in
  Fm_bitmap.add_level bm lvl
  && begin
    note_set t bm lvl;
    true
  end

(* OR [s] into [d], bitmap of [t], which does not cover it. *)
let grow t d s =
  let z0 = Fm_bitmap.lowest_zero d in
  if Fm_bitmap.is_empty d then t.empty <- t.empty - 1;
  Fm_bitmap.merge_into ~dst:d s;
  let z1 = Fm_bitmap.lowest_zero d in
  if z1 <> z0 then move t z0 z1

(* OR [s] into bitmap [j]; the statistic moves only if the bitmap
   changes. *)
let[@inline] absorb t j s =
  let d = Array.unsafe_get t.bitmaps j in
  if not (Fm_bitmap.covers d s) then grow t d s

let merge_into ~dst src =
  for j = 0 to Array.length dst.bitmaps - 1 do
    absorb dst j (Array.unsafe_get src.bitmaps j)
  done

let estimate t ~estimator ~stochastic ~frac_pow =
  Estimators.pcsa ~estimator ~stochastic ~frac_pow ~sum:t.sum ~empty:t.empty
    ~hist:t.hist

let size_bytes t = Fm_bitmap.size_bytes * Array.length t.bitmaps

(* Each missing bit ships as a (bitmap index, level) coordinate: 4 bytes. *)
let delta_bytes ~from target =
  let missing = ref 0 in
  for j = 0 to Array.length target.bitmaps - 1 do
    missing :=
      !missing + Fm_bitmap.missing ~from:from.bitmaps.(j) target.bitmaps.(j)
  done;
  4 * !missing

let equal a b =
  Array.length a.bitmaps = Array.length b.bitmaps
  && (let ok = ref true in
      Array.iteri
        (fun j bm -> if not (Fm_bitmap.equal bm b.bitmaps.(j)) then ok := false)
        a.bitmaps;
      !ok)

let is_empty t = t.empty = Array.length t.bitmaps

let to_bytes t =
  let buf = Bytes.create (8 * Array.length t.bitmaps) in
  Array.iteri
    (fun j bm -> Bytes.set_int64_le buf (8 * j) (Fm_bitmap.bits bm))
    t.bitmaps;
  buf

let of_bytes fam ~mle buf =
  let t = create fam ~mle ~m:(Bytes.length buf / 8) in
  for j = 0 to Array.length t.bitmaps - 1 do
    absorb t j (Fm_bitmap.of_bits (Bytes.get_int64_le buf (8 * j)))
  done;
  t
