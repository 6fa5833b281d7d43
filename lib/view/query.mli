(** Declarative standing queries — the unit a registry compiles.

    A query names a protocol (which tracking algorithm), a sketch family
    and estimator, the accuracy/lag parameters, and a key selector that
    scopes the view to a slice of the site streams.  Queries are plain
    data: they can be built programmatically, parsed from the compact
    [family:alg:key=value,...] spec syntax the CLI takes
    ([--views FILE|SPEC]), and printed back.

    The parameter names follow the paper: [alpha] is the sketch-accuracy
    share of the error budget, [theta] the lag share, [confidence] is
    [1 - delta].  [threshold] is the distinct-sampler sample-size bound
    (DS protocols only); [window] the sliding-window width in updates
    (window protocol only, [0] = a quarter of the run). *)

type sketch = Fm | Bjkst | Hll | Fmc | Fanout

val sketch_to_string : sketch -> string
val sketch_of_string : string -> sketch option

type selector =
  | All  (** every arrival *)
  | Sites of { first : int; count : int }
      (** arrivals at sites [first .. first + count - 1]; the view's
          tracker runs with [count] sites and re-based site indices *)
  | Key_mod of { modulus : int; residue : int }
      (** arrivals whose item key is [residue (mod modulus)] — the
          "per object class" scoping *)

type protocol =
  | Dc of Wd_protocol.Dc_tracker.algorithm
  | Ds of Wd_protocol.Ds_tracker.algorithm
  | Hh of Wd_protocol.Dc_tracker.algorithm
  | Window of Wd_protocol.Window_tracker.algorithm
  | Yz_hh
      (** Yi–Zhang optimal frequency heavy hitters
          ({!Wd_protocol.Yz_hh_tracker}); [alpha] is its epsilon *)
  | Yz_q
      (** Yi–Zhang duplicate-resilient quantiles
          ({!Wd_aggregate.Yz_quantile_tracker}); [alpha] is its epsilon *)

type t = {
  name : string;  (** view label; [""] picks a [family-alg] default *)
  protocol : protocol;
  sketch : sketch;
  estimator : Wd_sketch.Sketch_intf.estimator;
  alpha : float;
  confidence : float;
  theta : float;
  threshold : int;  (** DS sampler threshold *)
  window : int;  (** window width in updates; [0] = a quarter of the run *)
  topk : int;
      (** HH and YZ-HH evaluation top-k; also the YZ-HH coordinator
          capacity floor *)
  universe : int;  (** YZ-quantile item domain (rounded up to 2^j) *)
  hh_config : Wd_aggregate.Fm_array.config;
  selector : selector;
  seed : int option;
      (** per-view hash seed; [None] derives one from the run seed and
          the view's position *)
}

val protocol_family : protocol -> string
(** ["dc"], ["ds"], ["hh"], ["window"], ["yzhh"] or ["yzq"]. *)

val protocol_algorithm : protocol -> string
(** The paper's algorithm name (["LS"], ["GCS"], …). *)

val label : t -> string
(** [name] if nonempty, else ["family-alg"] (lowercase). *)

(** {1 Constructors} *)

val dc :
  ?name:string ->
  ?sketch:sketch ->
  ?estimator:Wd_sketch.Sketch_intf.estimator ->
  ?confidence:float ->
  ?selector:selector ->
  ?seed:int ->
  theta:float ->
  alpha:float ->
  Wd_protocol.Dc_tracker.algorithm ->
  t

val ds :
  ?name:string ->
  ?selector:selector ->
  ?seed:int ->
  theta:float ->
  threshold:int ->
  Wd_protocol.Ds_tracker.algorithm ->
  t

val hh :
  ?name:string ->
  ?config:Wd_aggregate.Fm_array.config ->
  ?selector:selector ->
  ?seed:int ->
  ?topk:int ->
  theta:float ->
  Wd_protocol.Dc_tracker.algorithm ->
  t

val window :
  ?name:string ->
  ?confidence:float ->
  ?selector:selector ->
  ?seed:int ->
  ?window:int ->
  theta:float ->
  alpha:float ->
  Wd_protocol.Window_tracker.algorithm ->
  t

val yzhh :
  ?name:string ->
  ?selector:selector ->
  ?seed:int ->
  ?topk:int ->
  epsilon:float ->
  unit ->
  t

val yzq :
  ?name:string ->
  ?selector:selector ->
  ?seed:int ->
  ?universe:int ->
  epsilon:float ->
  unit ->
  t

(** {1 Spec syntax}

    [family:alg\[:key=value,key=value,...\]] — e.g.
    ["dc:ls:alpha=0.07,theta=0.03,sketch=fanout,mod=100/7"].  Keys:
    [name], [alpha], [delta], [theta], [sketch] (fm/bjkst/hll/fmc/
    fanout), [est] (classic/mle), [threshold], [window], [rows]/[cols]/
    [bitmaps] (HH cell array), [topk] (HH and YZ-HH evaluation top-k),
    [universe] (YZ quantiles; the Yi–Zhang families' [alg] is always
    [yz]), [sites=A-B] (inclusive site
    range), [mod=M/R] (key class), [seed]. *)

val of_spec : string -> (t, string) result

val to_spec : t -> string
(** A spec string that {!of_spec} parses back to an equal query. *)

val of_file : string -> (t list, string) result
(** One spec per line; blank lines and [#] comments are skipped.
    Errors name the offending line. *)

(** {1 Pair packing}

    The HH protocol consumes [(v, w)] pairs; a registry routes them
    through the shared single-item stream by packing both halves into
    one key.  Requires [0 <= v, w < 2^31]. *)

val pack_pair : v:int -> w:int -> int
val unpack_v : int -> int
val unpack_w : int -> int
