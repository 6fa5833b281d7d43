(** Keyed 64-bit hash functions.

    A {!t} is one member of a hash family, selected by a seed.  The default
    family is the SplitMix64 finalizer keyed by the seed, which behaves like
    an ideal hash in practice; {!multiply_shift} gives the classical
    2-universal multiply-shift family of Dietzfelbinger et al. when provable
    (rather than empirical) universality is wanted. *)

type t
(** One hash function: a total map from 64-bit keys to 64-bit values. *)

val create : seed:int64 -> t
(** [create ~seed] is the seeded SplitMix64-finalizer hash. *)

val of_rng : Rng.t -> t
(** [of_rng rng] draws a fresh function from [rng]. *)

val multiply_shift : Rng.t -> t
(** [multiply_shift rng] draws a member of the 2-universal multiply-shift
    family: [h(x) = (a*x + b) >>> 0] over 64-bit arithmetic with odd [a]. *)

val hash : t -> int -> int64
(** [hash h x] applies [h] to the integer key [x], sign-extended to 64
    bits: [hash64 h (Int64.of_int x)]. *)

val hash64 : t -> int64 -> int64
(** [hash64 h x] applies [h] to a raw 64-bit key. *)

(** {1 Native-int entry points}

    The sketch update paths hash through these.  Each computes the
    64-bit word and reduces it to a native [int] inside this module, so
    the word is never boxed and a call allocates nothing, also in the
    dev profile, where [-opaque] stops inlining across modules. *)

val low_bits : t -> int -> int
(** [low_bits h x] is the low 63 bits of [hash h x]:
    [Int64.to_int (hash h x)]. *)

val to_range : t -> buckets:int -> int -> int
(** [to_range h ~buckets x] maps [x] uniformly onto [\[0, buckets)]:
    the high 62 bits of [hash h x] modulo [buckets], i.e.
    [Int64.to_int (Int64.shift_right_logical (hash h x) 2) mod buckets].
    Requires [buckets > 0]. *)

val bucket_rank : t -> log2m:int -> int -> int
(** [bucket_rank h ~log2m x] is the HyperLogLog split of [hash h x],
    packed as [(j lsl 6) lor rank]: [j] is the top [log2m] bits of the
    word, and [rank] is one plus the trailing-zero count of the
    remaining [64 - log2m] low bits, capped at 63 (63 when those bits
    are all zero).  Requires [1 <= log2m <= 56]. *)
