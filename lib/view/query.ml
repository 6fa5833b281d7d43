module Dc_t = Wd_protocol.Dc_tracker
module Ds_t = Wd_protocol.Ds_tracker
module W_t = Wd_protocol.Window_tracker

type sketch = Fm | Bjkst | Hll | Fmc | Fanout

let sketch_to_string = function
  | Fm -> "fm"
  | Bjkst -> "bjkst"
  | Hll -> "hll"
  | Fmc -> "fmc"
  | Fanout -> "fanout"

let sketch_of_string s =
  match String.lowercase_ascii s with
  | "fm" -> Some Fm
  | "bjkst" -> Some Bjkst
  | "hll" -> Some Hll
  | "fmc" -> Some Fmc
  | "fanout" -> Some Fanout
  | _ -> None

type selector =
  | All
  | Sites of { first : int; count : int }
  | Key_mod of { modulus : int; residue : int }

type protocol =
  | Dc of Dc_t.algorithm
  | Ds of Ds_t.algorithm
  | Hh of Dc_t.algorithm
  | Window of W_t.algorithm
  | Yz_hh
  | Yz_q

type t = {
  name : string;
  protocol : protocol;
  sketch : sketch;
  estimator : Wd_sketch.Sketch_intf.estimator;
  alpha : float;
  confidence : float;
  theta : float;
  threshold : int;
  window : int;
  topk : int;
  universe : int;
  hh_config : Wd_aggregate.Fm_array.config;
  selector : selector;
  seed : int option;
}

let protocol_family = function
  | Dc _ -> "dc"
  | Ds _ -> "ds"
  | Hh _ -> "hh"
  | Window _ -> "window"
  | Yz_hh -> "yzhh"
  | Yz_q -> "yzq"

let protocol_algorithm = function
  | Dc a | Hh a -> Dc_t.algorithm_to_string a
  | Ds a -> Ds_t.algorithm_to_string a
  | Window a -> W_t.algorithm_to_string a
  | Yz_hh | Yz_q -> "YZ"

let label q =
  if q.name <> "" then q.name
  else
    protocol_family q.protocol ^ "-"
    ^ String.lowercase_ascii (protocol_algorithm q.protocol)

let default_hh_config = { Wd_aggregate.Fm_array.rows = 3; cols = 500; bitmaps = 10 }

let default_universe = 1 lsl 20

let make ?(name = "") ?(sketch = Fm)
    ?(estimator = Wd_sketch.Sketch_intf.Classic) ?(confidence = 0.9)
    ?(selector = All) ?seed ?(threshold = 256) ?(window = 0) ?(topk = 20)
    ?(universe = default_universe) ?(hh_config = default_hh_config) ~theta
    ~alpha protocol =
  {
    name;
    protocol;
    sketch;
    estimator;
    alpha;
    confidence;
    theta;
    threshold;
    window;
    topk;
    universe;
    hh_config;
    selector;
    seed;
  }

let dc ?name ?sketch ?estimator ?confidence ?selector ?seed ~theta ~alpha
    algorithm =
  make ?name ?sketch ?estimator ?confidence ?selector ?seed ~theta ~alpha
    (Dc algorithm)

let ds ?name ?selector ?seed ~theta ~threshold algorithm =
  make ?name ?selector ?seed ~threshold ~theta ~alpha:0.1 (Ds algorithm)

let hh ?name ?config ?selector ?seed ?topk ~theta algorithm =
  make ?name ?hh_config:config ?selector ?seed ?topk ~theta ~alpha:0.1
    (Hh algorithm)

let window ?name ?confidence ?selector ?seed ?window:(w = 0) ~theta ~alpha
    algorithm =
  make ?name ?confidence ?selector ?seed ~window:w ~theta ~alpha
    (Window algorithm)

let yzhh ?name ?selector ?seed ?topk ~epsilon () =
  make ?name ?selector ?seed ?topk ~theta:0.03 ~alpha:epsilon Yz_hh

let yzq ?name ?selector ?seed ?universe ~epsilon () =
  make ?name ?selector ?seed ?universe ~theta:0.03 ~alpha:epsilon Yz_q

(* ------------------------------------------------------------------ *)
(* Spec syntax: family:alg[:key=value,...] *)

let window_algorithm_of_string s =
  match String.uppercase_ascii s with
  | "NS" -> Some W_t.NS
  | "SC" -> Some W_t.SC
  | "LS" -> Some W_t.LS
  | _ -> None

let ( let* ) = Result.bind

let parse_float key s =
  match float_of_string_opt s with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "%s: not a number: %S" key s)

let parse_int key s =
  match int_of_string_opt s with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "%s: not an integer: %S" key s)

(* [sites=A-B]: inclusive site range. *)
let parse_sites s =
  match String.split_on_char '-' s with
  | [ a; b ] -> (
    match (int_of_string_opt a, int_of_string_opt b) with
    | Some first, Some last when first >= 0 && last >= first ->
      Ok (Sites { first; count = last - first + 1 })
    | _ -> Error (Printf.sprintf "sites: bad range %S (want A-B)" s))
  | _ -> Error (Printf.sprintf "sites: bad range %S (want A-B)" s)

(* [mod=M/R]: key class R of M. *)
let parse_mod s =
  match String.split_on_char '/' s with
  | [ m; r ] -> (
    match (int_of_string_opt m, int_of_string_opt r) with
    | Some modulus, Some residue
      when modulus >= 1 && residue >= 0 && residue < modulus ->
      Ok (Key_mod { modulus; residue })
    | _ -> Error (Printf.sprintf "mod: bad class %S (want M/R, 0 <= R < M)" s))
  | _ -> Error (Printf.sprintf "mod: bad class %S (want M/R)" s)

let apply_key q key value =
  match key with
  | "name" -> Ok { q with name = value }
  | "alpha" ->
    let* v = parse_float key value in
    if v <= 0.0 || v >= 1.0 then Error "alpha: must be in (0,1)"
    else Ok { q with alpha = v }
  | "delta" ->
    let* v = parse_float key value in
    if v <= 0.0 || v >= 1.0 then Error "delta: must be in (0,1)"
    else Ok { q with confidence = 1.0 -. v }
  | "theta" ->
    let* v = parse_float key value in
    if v <= 0.0 then Error "theta: must be > 0" else Ok { q with theta = v }
  | "sketch" -> (
    match sketch_of_string value with
    | Some s -> Ok { q with sketch = s }
    | None -> Error (Printf.sprintf "sketch: unknown %S" value))
  | "est" -> (
    match String.lowercase_ascii value with
    | "classic" -> Ok { q with estimator = Wd_sketch.Sketch_intf.Classic }
    | "mle" -> Ok { q with estimator = Wd_sketch.Sketch_intf.Mle }
    | _ -> Error (Printf.sprintf "est: unknown %S (want classic|mle)" value))
  | "threshold" ->
    let* v = parse_int key value in
    if v < 1 then Error "threshold: must be >= 1"
    else Ok { q with threshold = v }
  | "window" ->
    let* v = parse_int key value in
    if v < 0 then Error "window: must be >= 0" else Ok { q with window = v }
  | "rows" ->
    let* v = parse_int key value in
    if v < 1 then Error "rows: must be >= 1"
    else Ok { q with hh_config = { q.hh_config with rows = v } }
  | "cols" ->
    let* v = parse_int key value in
    if v < 1 then Error "cols: must be >= 1"
    else Ok { q with hh_config = { q.hh_config with cols = v } }
  | "bitmaps" ->
    let* v = parse_int key value in
    if v < 1 then Error "bitmaps: must be >= 1"
    else Ok { q with hh_config = { q.hh_config with bitmaps = v } }
  | "topk" ->
    let* v = parse_int key value in
    if v < 1 then Error "topk: must be >= 1" else Ok { q with topk = v }
  | "universe" ->
    let* v = parse_int key value in
    if v < 2 then Error "universe: must be >= 2"
    else Ok { q with universe = v }
  | "sites" ->
    let* sel = parse_sites value in
    Ok { q with selector = sel }
  | "mod" ->
    let* sel = parse_mod value in
    Ok { q with selector = sel }
  | "seed" ->
    let* v = parse_int key value in
    Ok { q with seed = Some v }
  | _ -> Error (Printf.sprintf "unknown key %S" key)

let of_spec spec =
  let parts = String.split_on_char ':' (String.trim spec) in
  let* family, alg, opts =
    match parts with
    | [ f; a ] -> Ok (f, a, "")
    | [ f; a; o ] -> Ok (f, a, o)
    | _ -> Error (Printf.sprintf "bad spec %S (want family:alg[:options])" spec)
  in
  let* protocol =
    match (String.lowercase_ascii family, alg) with
    | "dc", a -> (
      match Dc_t.algorithm_of_string a with
      | Some alg -> Ok (Dc alg)
      | None -> Error (Printf.sprintf "dc: unknown algorithm %S" a))
    | "ds", a -> (
      match Ds_t.algorithm_of_string a with
      | Some alg -> Ok (Ds alg)
      | None -> Error (Printf.sprintf "ds: unknown algorithm %S" a))
    | "hh", a -> (
      match Dc_t.algorithm_of_string a with
      | Some alg when alg <> Dc_t.EC -> Ok (Hh alg)
      | Some _ -> Error "hh: EC has no heavy-hitter form"
      | None -> Error (Printf.sprintf "hh: unknown algorithm %S" a))
    | "window", a -> (
      match window_algorithm_of_string a with
      | Some alg -> Ok (Window alg)
      | None -> Error (Printf.sprintf "window: unknown algorithm %S" a))
    | "yzhh", a -> (
      match String.uppercase_ascii a with
      | "YZ" -> Ok Yz_hh
      | _ -> Error (Printf.sprintf "yzhh: unknown algorithm %S (want yz)" a))
    | "yzq", a -> (
      match String.uppercase_ascii a with
      | "YZ" -> Ok Yz_q
      | _ -> Error (Printf.sprintf "yzq: unknown algorithm %S (want yz)" a))
    | f, _ -> Error (Printf.sprintf "unknown protocol family %S" f)
  in
  (* Base defaults must match the constructors', so [to_spec] output
     (which omits fields a family ignores) parses back to an equal
     record. *)
  let alpha =
    match protocol with
    | Ds _ | Hh _ -> 0.1
    | Dc _ | Window _ -> 0.07
    | Yz_hh | Yz_q -> 0.05
  in
  let q = make ~theta:0.03 ~alpha protocol in
  if opts = "" then Ok q
  else
    List.fold_left
      (fun acc kv ->
        let* q = acc in
        match String.index_opt kv '=' with
        | Some i ->
          apply_key q
            (String.sub kv 0 i)
            (String.sub kv (i + 1) (String.length kv - i - 1))
        | None -> Error (Printf.sprintf "bad option %S (want key=value)" kv))
      (Ok q)
      (String.split_on_char ',' opts)

let to_spec q =
  let buf = Buffer.create 64 in
  Buffer.add_string buf (protocol_family q.protocol);
  Buffer.add_char buf ':';
  Buffer.add_string buf (String.lowercase_ascii (protocol_algorithm q.protocol));
  let opts = ref [] in
  let add fmt = Printf.ksprintf (fun s -> opts := s :: !opts) fmt in
  if q.name <> "" then add "name=%s" q.name;
  add "theta=%g" q.theta;
  (match q.protocol with
  | Dc _ | Window _ ->
    add "alpha=%g" q.alpha;
    add "delta=%g" (1.0 -. q.confidence)
  | Ds _ -> add "threshold=%d" q.threshold
  | Hh _ ->
    let c = q.hh_config in
    add "rows=%d" c.Wd_aggregate.Fm_array.rows;
    add "cols=%d" c.cols;
    add "bitmaps=%d" c.bitmaps;
    add "topk=%d" q.topk
  | Yz_hh ->
    add "alpha=%g" q.alpha;
    add "topk=%d" q.topk
  | Yz_q ->
    add "alpha=%g" q.alpha;
    add "universe=%d" q.universe);
  (match q.protocol with
  | Dc _ ->
    add "sketch=%s" (sketch_to_string q.sketch);
    if q.estimator = Wd_sketch.Sketch_intf.Mle then add "est=mle"
  | Window _ -> if q.window > 0 then add "window=%d" q.window
  | Ds _ | Hh _ | Yz_hh | Yz_q -> ());
  (match q.selector with
  | All -> ()
  | Sites { first; count } -> add "sites=%d-%d" first (first + count - 1)
  | Key_mod { modulus; residue } -> add "mod=%d/%d" modulus residue);
  (match q.seed with None -> () | Some s -> add "seed=%d" s);
  (match List.rev !opts with
  | [] -> ()
  | opts ->
    Buffer.add_char buf ':';
    Buffer.add_string buf (String.concat "," opts));
  Buffer.contents buf

let of_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> Error e
  | contents ->
    let lines = String.split_on_char '\n' contents in
    let rec go n acc = function
      | [] -> Ok (List.rev acc)
      | line :: rest ->
        let line = String.trim line in
        if line = "" || line.[0] = '#' then go (n + 1) acc rest
        else (
          match of_spec line with
          | Ok q -> go (n + 1) (q :: acc) rest
          | Error e -> Error (Printf.sprintf "%s:%d: %s" path n e))
    in
    go 1 [] lines

(* ------------------------------------------------------------------ *)
(* Pair packing for HH views over the shared single-item stream. *)

let pack_pair ~v ~w =
  if v < 0 || v >= 0x4000_0000 * 2 || w < 0 || w >= 0x4000_0000 * 2 then
    invalid_arg "Query.pack_pair: v and w must be in [0, 2^31)";
  (v lsl 31) lor w

let unpack_v packed = packed lsr 31
let unpack_w packed = packed land 0x7FFF_FFFF
