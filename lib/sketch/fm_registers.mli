(** The register state shared by {!Fm} and {!Fm_concentrated}: [m]
    {!Fm_bitmap}s plus the estimator's sufficient statistic — the sum of
    the bitmaps' lowest-zero indices, the number of empty bitmaps and,
    for [Mle] families only, the 65-slot histogram of lowest-zero
    values.

    Every register write goes through {!add_level}, {!merge_into} or
    the constructors, and each keeps the statistic current, so
    {!estimate} costs O(1) under [Classic] and O(65) under [Mle] instead
    of a scan of the [m] bitmaps.  The statistic is integer-valued, so
    the estimate is the same float the scan would give.  Callers own the
    family and its checks (same family on merge, buffer length on
    decode). *)

type 'fam t = private {
  fam : 'fam;
  bitmaps : Fm_bitmap.t array;
  hist : int array;
  mutable sum : int;
  mutable empty : int;
}

val create : 'fam -> mle:bool -> m:int -> 'fam t
(** [m] empty bitmaps; the histogram exists iff [mle]. *)

val copy : 'fam t -> 'fam t
(** Deep copy of the bitmaps and the statistic. *)

val add_level : 'fam t -> int -> int -> bool
(** [add_level t j lvl] sets bit [lvl] of bitmap [j] ([j] in [\[0, m)],
    unchecked) and reports whether it was unset.  An add that changes
    nothing does no bookkeeping. *)

val merge_into : dst:'fam t -> 'fam t -> unit
(** Bitwise OR per bitmap ([src] with the same [m]); the statistic is
    updated only for bitmaps that changed, in the same pass.  [dst] may
    be [src]. *)

val estimate :
  'fam t ->
  estimator:Sketch_intf.estimator ->
  stochastic:bool ->
  frac_pow:float array ->
  float
(** {!Estimators.pcsa} on the statistic. *)

val size_bytes : 'fam t -> int
val delta_bytes : from:'fam t -> 'fam t -> int
val equal : 'fam t -> 'fam t -> bool

val is_empty : 'fam t -> bool
(** O(1): every bitmap is empty. *)

val to_bytes : 'fam t -> bytes
(** Raw little-endian bitmaps, [8 * m] bytes. *)

val of_bytes : 'fam -> mle:bool -> bytes -> 'fam t
(** Inverse of {!to_bytes} (the length must be a multiple of 8); the
    statistic is computed from the decoded bitmaps. *)
