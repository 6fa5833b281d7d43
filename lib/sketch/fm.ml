module Rng = Wd_hashing.Rng
module Universal = Wd_hashing.Universal
module Geometric = Wd_hashing.Geometric

type variant = Averaged | Stochastic

type family = {
  variant : variant;
  estimator : Sketch_intf.estimator;
  m : int;
  (* Averaged: m level hashes, one per bitmap.
     Stochastic: hashes.(0) provides both bucket (high bits) and level
     (trailing zeros), which are independent enough for PCSA. *)
  hashes : Universal.t array;
  bucket_hash : Universal.t;
  frac_pow : float array; (* {!Estimators.pow2_fractions} m *)
}

type t = family Fm_registers.t

let name = "fm"

let family_custom ~rng ~variant ~bitmaps =
  if bitmaps < 1 then invalid_arg "Fm.family_custom: bitmaps must be >= 1";
  let n_hashes = match variant with Averaged -> bitmaps | Stochastic -> 1 in
  {
    variant;
    estimator = Sketch_intf.Classic;
    m = bitmaps;
    hashes = Array.init n_hashes (fun _ -> Universal.of_rng rng);
    bucket_hash = Universal.of_rng rng;
    frac_pow = Estimators.pow2_fractions bitmaps;
  }

let family ~rng ~accuracy ~confidence =
  if accuracy <= 0.0 || accuracy >= 1.0 then
    invalid_arg "Fm.family: accuracy must be in (0,1)";
  if confidence <= 0.0 || confidence >= 1.0 then
    invalid_arg "Fm.family: confidence must be in (0,1)";
  (* Standard error of the averaged estimator is ~0.78/sqrt m
     asymptotically; continuous monitoring evaluates the estimate at
     every prefix, so the worst point of the trajectory sits in the
     tail — size with a conservative constant 1.0 to keep the whole
     run inside the budget.  Boosting to confidence 1-delta multiplies
     m by ln(1/delta). *)
  let delta = 1.0 -. confidence in
  let base = (1.0 /. accuracy) ** 2.0 in
  let m = int_of_float (Float.ceil (base *. Float.max 1.0 (Float.log (1.0 /. delta)))) in
  family_custom ~rng ~variant:Stochastic ~bitmaps:(max 1 m)

let bitmaps fam = fam.m
let variant fam = fam.variant
let with_estimator estimator fam = { fam with estimator }
let estimator fam = fam.estimator

let create fam =
  Fm_registers.create fam ~mle:(fam.estimator = Sketch_intf.Mle) ~m:fam.m

let copy = Fm_registers.copy

let add (t : t) v =
  let fam = t.fam in
  match fam.variant with
  | Averaged ->
    let changed = ref false in
    for j = 0 to fam.m - 1 do
      if Fm_registers.add_level t j (Geometric.level fam.hashes.(j) v) then
        changed := true
    done;
    !changed
  | Stochastic ->
    let j = Universal.to_range fam.bucket_hash ~buckets:fam.m v in
    Fm_registers.add_level t j (Geometric.level fam.hashes.(0) v)

(* Equal to folding [add] over [vs] (change flags discarded): the family
   dispatch, field loads and bounds checks are hoisted out of the loop,
   which is what makes the batched path worth threading up through the
   trackers and the simulator. *)
let add_batch (t : t) vs =
  let fam = t.fam in
  let n = Array.length vs in
  match fam.variant with
  | Averaged ->
    let hashes = fam.hashes in
    let m = fam.m in
    for i = 0 to n - 1 do
      let v = Array.unsafe_get vs i in
      for j = 0 to m - 1 do
        ignore
          (Fm_registers.add_level t j
             (Geometric.level (Array.unsafe_get hashes j) v)
            : bool)
      done
    done
  | Stochastic ->
    let bucket_hash = fam.bucket_hash in
    let level_hash = Array.unsafe_get fam.hashes 0 in
    let m = fam.m in
    for i = 0 to n - 1 do
      let v = Array.unsafe_get vs i in
      (* [to_range] yields j in [0, m), so the bitmap access is in
         bounds by construction. *)
      let j = Universal.to_range bucket_hash ~buckets:m v in
      ignore (Fm_registers.add_level t j (Geometric.level level_hash v) : bool)
    done

let merge_into ~(dst : t) (src : t) =
  if dst.fam != src.fam && dst.fam <> src.fam then
    invalid_arg "Fm.merge_into: sketches from different families";
  Fm_registers.merge_into ~dst src

let estimate (t : t) =
  let fam = t.fam in
  Fm_registers.estimate t ~estimator:fam.estimator
    ~stochastic:(match fam.variant with Averaged -> false | Stochastic -> true)
    ~frac_pow:fam.frac_pow

let size_bytes = Fm_registers.size_bytes
let delta_bytes = Fm_registers.delta_bytes
let equal = Fm_registers.equal
let is_empty = Fm_registers.is_empty
let family_of (t : t) = t.fam
let to_bytes = Fm_registers.to_bytes

let of_bytes fam buf =
  if Bytes.length buf <> 8 * fam.m then
    invalid_arg "Fm.of_bytes: buffer length does not match the family";
  Fm_registers.of_bytes fam ~mle:(fam.estimator = Sketch_intf.Mle) buf

(* The uniform (alpha, delta, seed) constructor pair: the paper's
   parameter names over the (accuracy, confidence) sizing above. *)

let family_of_params ~alpha ~delta ~seed =
  if delta <= 0.0 || delta >= 1.0 then
    invalid_arg "Fm.family_of_params: delta must be in (0,1)";
  family
    ~rng:(Wd_hashing.Rng.create seed)
    ~accuracy:alpha
    ~confidence:(1.0 -. delta)

let of_params ~alpha ~delta ~seed =
  create (family_of_params ~alpha ~delta ~seed)
