module Rng = Wd_hashing.Rng
module Mixed_tabulation = Wd_hashing.Mixed_tabulation

type family = {
  m : int;
  hash : Mixed_tabulation.t;
  estimator : Sketch_intf.estimator;
  frac_pow : float array; (* {!Estimators.pow2_fractions} m *)
}

type t = family Fm_registers.t

let name = "fmc"

let family_custom ~rng ~buckets =
  if buckets < 1 then
    invalid_arg "Fm_concentrated.family_custom: buckets must be >= 1";
  {
    m = buckets;
    hash = Mixed_tabulation.create rng;
    estimator = Sketch_intf.Classic;
    frac_pow = Estimators.pow2_fractions buckets;
  }

let family ~rng ~accuracy ~confidence =
  if accuracy <= 0.0 || accuracy >= 1.0 then
    invalid_arg "Fm_concentrated.family: accuracy must be in (0,1)";
  if confidence <= 0.0 || confidence >= 1.0 then
    invalid_arg "Fm_concentrated.family: confidence must be in (0,1)";
  let delta = 1.0 -. confidence in
  family_custom ~rng
    ~buckets:(Mixed_tabulation.concentrated_buckets ~alpha:accuracy ~delta)

let buckets fam = fam.m
let with_estimator estimator fam = { fam with estimator }
let estimator fam = fam.estimator

let create fam =
  Fm_registers.create fam ~mle:(fam.estimator = Sketch_intf.Mle) ~m:fam.m

let copy = Fm_registers.copy

(* One mixed-tabulation hash per item supplies both coordinates: bucket
   from the high 32 bits (mod m), level from the trailing zeros of the
   low 32 bits — the PCSA split, but through a family strong enough that
   no averaging over independent repetitions is needed.  Levels cap at
   32, bounding each bucket near 2^32 phi; with m >= 16 buckets the
   sketch range exceeds any int stream this code can see.
   [Mixed_tabulation.split] packs the split into one native int. *)
let add (t : t) v =
  let s = Mixed_tabulation.split t.fam.hash v in
  Fm_registers.add_level t ((s lsr 6) mod t.fam.m) (s land 63)

(* Equal to folding [add] (change flags discarded) with the hash tables
   and bounds checks hoisted out of the loop. *)
let add_batch (t : t) vs =
  let fam = t.fam in
  let hash = fam.hash in
  let m = fam.m in
  for i = 0 to Array.length vs - 1 do
    let s = Mixed_tabulation.split hash (Array.unsafe_get vs i) in
    ignore (Fm_registers.add_level t ((s lsr 6) mod m) (s land 63) : bool)
  done

let merge_into ~(dst : t) (src : t) =
  if dst.fam != src.fam && dst.fam <> src.fam then
    invalid_arg "Fm_concentrated.merge_into: sketches from different families";
  Fm_registers.merge_into ~dst src

let estimate (t : t) =
  Fm_registers.estimate t ~estimator:t.fam.estimator ~stochastic:true
    ~frac_pow:t.fam.frac_pow

let size_bytes = Fm_registers.size_bytes
let delta_bytes = Fm_registers.delta_bytes
let equal = Fm_registers.equal
let is_empty = Fm_registers.is_empty
let family_of (t : t) = t.fam
let to_bytes = Fm_registers.to_bytes

let of_bytes fam buf =
  if Bytes.length buf <> 8 * fam.m then
    invalid_arg "Fm_concentrated.of_bytes: buffer length does not match the family";
  Fm_registers.of_bytes fam ~mle:(fam.estimator = Sketch_intf.Mle) buf

(* The uniform (alpha, delta, seed) constructor pair. *)

let family_of_params ~alpha ~delta ~seed =
  if delta <= 0.0 || delta >= 1.0 then
    invalid_arg "Fm_concentrated.family_of_params: delta must be in (0,1)";
  family
    ~rng:(Wd_hashing.Rng.create seed)
    ~accuracy:alpha
    ~confidence:(1.0 -. delta)

let of_params ~alpha ~delta ~seed =
  create (family_of_params ~alpha ~delta ~seed)
