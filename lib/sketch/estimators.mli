(** Shared estimation machinery: the blended linear-counting crossover
    and the Clifford–Cosma maximum-likelihood solvers ("A Statistical
    Analysis of Probabilistic Counting Algorithms", Clifford & Cosma).

    The MLE solvers work on the Poissonized per-bucket model: the items
    landing in one bucket are Poisson with intensity [lambda], every
    bucket observation (an FM lowest-zero index, an HLL register value)
    has an explicit likelihood in [lambda], and the aggregated score
    function is strictly decreasing — safeguarded Newton with a
    bisection bracket finds the unique root.  Callers own a small
    integer counts array (one slot per possible bucket value) so the
    estimate path allocates nothing but its result; the weight tables
    are precomputed at module initialization. *)

val linear_blend : m:float -> empty:int -> raw:float -> float
(** [linear_blend ~m ~empty ~raw] is the Classic small-range policy
    shared by the PCSA-style estimates: linear counting
    [m * ln (m / empty)] below [raw = 2m], the bias-corrected [raw]
    above [raw = 3m], and a linear crossfade between the two inside the
    band — continuous in [raw] where the old hard switch at [2.5m]
    could step discontinuously.  When [empty = 0] (no empty bucket to
    count) or [m <= 1], returns [raw] unconditionally. *)

val pow2_fractions : int -> float array
(** [pow2_fractions m] is the table [2^(r/m)] for [r] in [\[0, m)]: the
    fractional factor of [2^(sum/m)], built once per family so that
    {!pcsa} needs no [Float.pow].  Requires [m >= 1]. *)

val pcsa :
  estimator:Sketch_intf.estimator ->
  stochastic:bool ->
  frac_pow:float array ->
  sum:int ->
  empty:int ->
  hist:int array ->
  float
(** The estimate of an FM-family sketch of [m = Array.length frac_pow]
    bitmaps ([frac_pow = pow2_fractions m]) from its statistic: [sum],
    the sum of the bitmaps' lowest-zero indices; [empty], the number of
    empty bitmaps; and, read only under [Mle], [hist], the number of
    bitmaps per lowest-zero value (length >= 65, not modified).

    [Classic] is [2^(sum/m) / phi]; with [stochastic] (PCSA), [m] times
    that, blended by {!linear_blend} on [empty].  [Mle] is [m] (with
    [stochastic]; else 1) times the MLE per-bucket intensity of bitmaps
    observed through their lowest zeros, read from [hist] and seeded
    with the Classic estimate over the same factor; 0 when every bitmap
    has lowest zero 0.  Allocates only the result. *)

val hll : counts:int array -> init:float -> float
(** [hll ~counts ~init] is the MLE per-register intensity for HLL
    registers: [counts.(r)] must be the number of registers holding
    value [r], [r] in [0, 63] (length >= 64); the array is clobbered.
    The distinct estimate is [m * lambda]. *)
