module Rng = Wd_hashing.Rng
module Mixed_tabulation = Wd_hashing.Mixed_tabulation
module Estimators = Wd_sketch.Estimators

type plane = {
  hash : Mixed_tabulation.t;
  arena : Arena.t;
  mutable memo_key : int;
  mutable memo_split : int; (* [Mixed_tabulation.split hash memo_key] *)
  scratch : int array; (* shared copy of an MLE histogram, see [estimate] *)
}

let plane ?capacity ~rng () =
  let hash = Mixed_tabulation.create rng in
  (* Invariant: [memo_split = split hash memo_key], established here so
     the memo needs no validity flag or sentinel branch. *)
  {
    hash;
    arena = Arena.create ?capacity ();
    memo_key = min_int;
    memo_split = Mixed_tabulation.split hash min_int;
    scratch = Array.make 65 0;
  }

let plane_words p = Arena.used p.arena

type family = {
  plane : plane;
  m : int;
  estimator : Wd_sketch.Sketch_intf.estimator;
  frac_pow : float array; (* {!Estimators.pow2_fractions} m *)
}

(* [off] indexes the family plane's arena: registers live at
   [off .. off + m - 1], one 33-bit level bitmap per bucket.  The
   estimator's statistic follows them, kept current by every register
   write as in {!Wd_sketch.Fm_registers}: the sum of the lowest zeros at
   [off + m], the number of empty registers at [off + m + 1] and, for
   Mle families only, the lowest-zero histogram at [off + m + 2 ..
   off + m + 66]. *)
type t = { fam : family; off : int }

let mle fam = fam.estimator = Wd_sketch.Sketch_intf.Mle
let words fam = fam.m + 2 + if mle fam then 65 else 0

let name = "fanout"

let family_custom ~plane ~buckets =
  if buckets < 1 then
    invalid_arg "Fanout_sketch.family_custom: buckets must be >= 1";
  {
    plane;
    m = buckets;
    estimator = Wd_sketch.Sketch_intf.Classic;
    frac_pow = Estimators.pow2_fractions buckets;
  }

let family_on ~plane ~accuracy ~confidence =
  if accuracy <= 0.0 || accuracy >= 1.0 then
    invalid_arg "Fanout_sketch.family: accuracy must be in (0,1)";
  if confidence <= 0.0 || confidence >= 1.0 then
    invalid_arg "Fanout_sketch.family: confidence must be in (0,1)";
  let delta = 1.0 -. confidence in
  family_custom ~plane
    ~buckets:(Mixed_tabulation.concentrated_buckets ~alpha:accuracy ~delta)

let family ~rng ~accuracy ~confidence =
  family_on ~plane:(plane ~rng ()) ~accuracy ~confidence

let with_estimator estimator fam = { fam with estimator }
let estimator fam = fam.estimator
let buckets fam = fam.m
let plane_of fam = fam.plane
let family_of t = t.fam

let create fam =
  let arena = fam.plane.arena in
  let off = Arena.alloc arena (words fam) in
  (* Zeroed registers: all m empty, all m lowest zeros at 0. *)
  Arena.set arena (off + fam.m + 1) fam.m;
  if mle fam then Arena.set arena (off + fam.m + 2) fam.m;
  { fam; off }

let copy t =
  let len = words t.fam in
  let off = Arena.alloc t.fam.plane.arena len in
  Arena.blit t.fam.plane.arena ~src:t.off ~dst:off ~len;
  { t with off }

(* Index of the least significant zero bit of a register: its number of
   trailing ones, at most 33 since registers use 33 of the 63 bits.
   Counted inline, with [note] and [grow], so that [merge_into]'s loop
   holds no call: a call on the changed path made the release build
   slower on the unchanged one. *)
let[@inline] lowest_zero r =
  let r = ref r and z = ref 0 in
  while !r land 1 = 1 do
    r := !r lsr 1;
    incr z
  done;
  !z

let[@inline] bump arena i d = Arena.unsafe_set arena i (Arena.unsafe_get arena i + d)

(* A register of [t] changed: its lowest zero moved from [z0] to [z1]
   (possibly equal), and it was empty iff [was_empty]. *)
let[@inline] note t ~z0 ~z1 ~was_empty =
  let fam = t.fam in
  let arena = fam.plane.arena and st = t.off + fam.m in
  if z1 <> z0 then begin
    bump arena st (z1 - z0);
    if mle fam then begin
      bump arena (st + 2 + z0) (-1);
      bump arena (st + 2 + z1) 1
    end
  end;
  if was_empty then bump arena (st + 1) (-1)

(* One memoized mixed-tabulation hash per item per plane: the first
   sketch to see an item pays the hash, every other sketch on the plane
   hits the memo.  Correct because the memo invariant
   [memo_split = split hash memo_key] holds from construction on.  The
   memo holds the packed native split, so storing it allocates
   nothing. *)
let split_item p v =
  if p.memo_key = v then p.memo_split
  else begin
    let s = Mixed_tabulation.split p.hash v in
    p.memo_key <- v;
    p.memo_split <- s;
    s
  end

(* Bucket/level split identical to {!Wd_sketch.Fm_concentrated.add}:
   bucket from the high 32 bits (mod m), level from the trailing zeros
   of the low 32 bits, capped at 32 — so a register needs 33 bits. *)
let add t v =
  let p = t.fam.plane in
  let s = split_item p v in
  let j = (s lsr 6) mod t.fam.m and level = s land 63 in
  let idx = t.off + j in
  let r = Arena.unsafe_get p.arena idx in
  let bit = 1 lsl level in
  if r land bit = 0 then begin
    let r' = r lor bit in
    Arena.unsafe_set p.arena idx r';
    (* A lowest zero now above [level] was [level]; otherwise it did
       not move. *)
    let z = lowest_zero r' in
    note t ~z0:(if z > level then level else z) ~z1:z ~was_empty:(r = 0);
    true
  end
  else false

(* Equal to folding [add] (change flags discarded); the memo makes the
   hoisting moot, so this is just the loop. *)
let add_batch t vs =
  for i = 0 to Array.length vs - 1 do
    ignore (add t (Array.unsafe_get vs i) : bool)
  done

(* Register [j] of [t] grows from [r] to [r']. *)
let[@inline] grow t j r r' =
  Arena.unsafe_set t.fam.plane.arena (t.off + j) r';
  note t ~z0:(lowest_zero r) ~z1:(lowest_zero r') ~was_empty:(r = 0)

let merge_into ~dst src =
  if dst.fam != src.fam then
    invalid_arg "Fanout_sketch.merge_into: sketches from different families";
  let arena = dst.fam.plane.arena in
  for j = 0 to dst.fam.m - 1 do
    let r = Arena.unsafe_get arena (dst.off + j) in
    let r' = r lor Arena.unsafe_get arena (src.off + j) in
    if r' <> r then grow dst j r r'
  done

(* Under Mle the histogram is copied into the plane's buffer, since
   {!Estimators.pcsa} reads an int array: O(65), not O(m). *)
let estimate t =
  let fam = t.fam in
  let arena = fam.plane.arena and st = t.off + fam.m in
  let hist = fam.plane.scratch in
  if mle fam then
    for z = 0 to 64 do
      Array.unsafe_set hist z (Arena.unsafe_get arena (st + 2 + z))
    done;
  Estimators.pcsa ~estimator:fam.estimator ~stochastic:true
    ~frac_pow:fam.frac_pow ~sum:(Arena.unsafe_get arena st)
    ~empty:(Arena.unsafe_get arena (st + 1))
    ~hist

let size_bytes t = 8 * t.fam.m

(* Each missing bit ships as a (bucket index, level) coordinate: 4
   bytes, as in {!Wd_sketch.Fm.delta_bytes}. *)
let delta_bytes ~from target =
  let arena = target.fam.plane.arena in
  let missing = ref 0 in
  for j = 0 to target.fam.m - 1 do
    let extra =
      Arena.unsafe_get arena (target.off + j)
      land lnot (Arena.unsafe_get arena (from.off + j))
    in
    let x = ref extra in
    while !x <> 0 do
      x := !x land (!x - 1);
      incr missing
    done
  done;
  4 * !missing

let equal a b =
  a.fam.m = b.fam.m
  && (let aa = a.fam.plane.arena and ba = b.fam.plane.arena in
      let ok = ref true in
      for j = 0 to a.fam.m - 1 do
        if Arena.unsafe_get aa (a.off + j) <> Arena.unsafe_get ba (b.off + j)
        then ok := false
      done;
      !ok)

let is_empty t = Arena.get t.fam.plane.arena (t.off + t.fam.m + 1) = t.fam.m

(* The uniform (alpha, delta, seed) constructor pair. *)

let family_of_params ~alpha ~delta ~seed =
  if delta <= 0.0 || delta >= 1.0 then
    invalid_arg "Fanout_sketch.family_of_params: delta must be in (0,1)";
  family ~rng:(Rng.create seed) ~accuracy:alpha ~confidence:(1.0 -. delta)

let of_params ~alpha ~delta ~seed =
  create (family_of_params ~alpha ~delta ~seed)
