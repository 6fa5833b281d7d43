(* Shared estimation machinery for the distinct sketches: the blended
   linear-counting crossover used by every Classic estimate, the PCSA
   estimate of the FM-family sketches, and the Clifford–Cosma
   maximum-likelihood solvers used by the Mle estimates.  All tables are
   precomputed at module init (or family creation) so the per-estimate
   work is table lookups, [expm1] and a short Newton/bisection loop.
   The helpers are inlined into the exported estimates, so their floats
   stay unboxed and an estimate allocates only its result. *)

let lc_low = 2.0
let lc_high = 3.0

(* Crossfade between linear counting on the empty-bucket fraction and
   the bias-corrected raw estimate over raw/m in [lc_low, lc_high],
   instead of hard-switching at raw = 2.5m: a hard switch makes the
   estimate jump by the (nonzero) gap between the two estimators exactly
   where a threshold protocol is most likely to sit, and a jump across
   the threshold is a spurious send.  When [empty = 0] linear counting
   is undefined (log of m/0), so the raw estimate is used regardless of
   how small it is — the explicit low-raw fallback documented in
   [Fm.estimate]. *)
let[@inline] linear_blend ~m ~empty ~raw =
  if empty <= 0 || m <= 1.0 then raw
  else begin
    let lc = m *. Float.log (m /. Float.of_int empty) in
    if raw <= lc_low *. m then lc
    else if raw >= lc_high *. m then raw
    else begin
      let w = ((raw /. m) -. lc_low) /. (lc_high -. lc_low) in
      ((1.0 -. w) *. lc) +. (w *. raw)
    end
  end

(* Both likelihood scores below share one canonical shape.  Under
   Poissonization with per-bucket intensity [lambda], the derivative of
   the log-likelihood aggregated over bucket-value counts is

     f(lambda) = sum_i a_i * w.(i) / expm1 (lambda * w.(i)) - total

   with nonnegative integer coefficients [a_i] and positive [total]: a
   strictly decreasing function of [lambda] falling from +inf to
   [-total], so the MLE is its unique root and safeguarded Newton
   (bisection fallback inside a maintained bracket) cannot diverge.
   Terms with [lambda * w > 45] contribute < 3e-20 and are skipped,
   which also keeps the [exp] in the derivative finite.

   The coefficients are [a.(i)] themselves, or — when [above] — the
   number of observations above [i] in a histogram [a] of [count]
   observations, so the FM score reads a sketch's live lowest-zero
   histogram without a working copy.  Either way [a_i] is the same
   integer and the terms are summed in the same order. *)
let[@inline] score ~w ~a ~above ~count ~total lambda =
  let s = ref 0.0 and seen = ref 0 in
  for i = 0 to Array.length w - 1 do
    let ai =
      if above then begin
        seen := !seen + Array.unsafe_get a i;
        count - !seen
      end
      else Array.unsafe_get a i
    in
    if ai > 0 then begin
      let wi = Array.unsafe_get w i in
      let x = lambda *. wi in
      if x < 45.0 then s := !s +. (Float.of_int ai *. wi /. Float.expm1 x)
    end
  done;
  !s -. total

(* f'(lambda), over the same coefficients as [score]. *)
let[@inline] slope ~w ~a ~above ~count lambda =
  let s = ref 0.0 and seen = ref 0 in
  for i = 0 to Array.length w - 1 do
    let ai =
      if above then begin
        seen := !seen + Array.unsafe_get a i;
        count - !seen
      end
      else Array.unsafe_get a i
    in
    if ai > 0 then begin
      let wi = Array.unsafe_get w i in
      let x = lambda *. wi in
      if x < 45.0 then begin
        let e = Float.expm1 x in
        s := !s -. (Float.of_int ai *. wi *. wi *. (e +. 1.0) /. (e *. e))
      end
    end
  done;
  !s

let[@inline] solve ~w ~a ~above ~count ~total ~init =
  let any =
    if above then Array.unsafe_get a 0 < count
    else begin
      let any = ref false in
      for i = 0 to Array.length w - 1 do
        if Array.unsafe_get a i > 0 then any := true
      done;
      !any
    end
  in
  if not any then 0.0
  else begin
    let lo = ref 0.0 and hi = ref (if init > 0.0 then init else 1.0) in
    let rounds = ref 0 in
    while score ~w ~a ~above ~count ~total !hi > 0.0 && !rounds < 300 do
      lo := !hi;
      hi := !hi *. 2.0;
      incr rounds
    done;
    let lambda = ref (0.5 *. (!lo +. !hi)) in
    let converged = ref false in
    let iter = ref 0 in
    while (not !converged) && !iter < 80 do
      incr iter;
      let f = score ~w ~a ~above ~count ~total !lambda in
      if f > 0.0 then lo := !lambda else hi := !lambda;
      let f' = slope ~w ~a ~above ~count !lambda in
      let next = if f' < 0.0 then !lambda -. (f /. f') else 0.5 *. (!lo +. !hi) in
      let next = if next > !lo && next < !hi then next else 0.5 *. (!lo +. !hi) in
      if Float.abs (next -. !lambda) <= 1e-10 *. Float.max next 1.0 then
        converged := true;
      lambda := next
    done;
    !lambda
  end

(* P(level = i) = 2^-(i+1): bit i of an FM bitmap with intensity lambda
   is set with probability 1 - exp (-lambda * w i), w i = 2^-(i+1).
   Observing lowest zero z has log-likelihood
   sum_{i<z} log (1 - exp (-lambda * w i)) - lambda * w z. *)
let fm_weights = Array.init 65 (fun i -> Float.ldexp 1.0 (-(i + 1)))

let[@inline] fm_lambda ~hist ~init =
  let total = ref 0.0 and count = ref 0 in
  for z = 0 to 64 do
    let c = Array.unsafe_get hist z in
    total := !total +. (Float.of_int c *. Array.unsafe_get fm_weights z);
    count := !count + c
  done;
  solve ~w:fm_weights ~a:hist ~above:true ~count:!count ~total:!total ~init

let pow2_fractions m =
  Array.init m (fun r -> 2.0 ** (Float.of_int r /. Float.of_int m))

(* [2^(sum/m)] with [sum] an integer in [0, 64m]: quotient and remainder
   turn the transcendental [Float.pow] into one table lookup and an exact
   [ldexp]. *)
let[@inline] pow2_mean frac_pow sum =
  let m = Array.length frac_pow in
  Float.ldexp (Array.unsafe_get frac_pow (sum mod m)) (sum / m)

let pcsa ~estimator ~stochastic ~frac_pow ~sum ~empty ~hist =
  let m = Float.of_int (Array.length frac_pow) in
  let classic =
    if stochastic then
      (* Stochastic averaging is biased upwards when the number of
         distinct items is comparable to m (many bitmaps still empty):
         blend towards linear counting on the empty-bitmap fraction in
         that regime.  When no bitmap is empty — reachable with low raw,
         e.g. bitmaps whose only set bits sit above bit 0 — linear
         counting has no signal to read and [linear_blend] keeps the raw
         estimate unconditionally. *)
      let raw = m *. pow2_mean frac_pow sum /. Fm_bitmap.phi in
      linear_blend ~m ~empty ~raw
    else pow2_mean frac_pow sum /. Fm_bitmap.phi
  in
  match estimator with
  | Sketch_intf.Classic -> classic
  | Sketch_intf.Mle ->
    let scale = if stochastic then m else 1.0 in
    scale *. fm_lambda ~hist ~init:(classic /. scale)

(* P(register = r) = e^(-lambda * x_r) * (1 - e^(-lambda * x_r)) for
   r >= 1 with x_r = 2^-r, and e^-lambda for r = 0 (Poissonized HLL
   register law). *)
let hll_weights = Array.init 64 (fun r -> Float.ldexp 1.0 (-r))

let hll ~counts ~init =
  if Array.length counts < 64 then
    invalid_arg "Estimators.hll: counts must have length >= 64";
  let total = ref 0.0 in
  for r = 0 to 63 do
    total :=
      !total +. (Float.of_int (Array.unsafe_get counts r) *. hll_weights.(r))
  done;
  (* The r = 0 likelihood term is linear in lambda (coefficient folded
     into [total]); only r >= 1 contributes an expm1 term. *)
  counts.(0) <- 0;
  solve ~w:hll_weights ~a:counts ~above:false ~count:0 ~total:!total ~init
