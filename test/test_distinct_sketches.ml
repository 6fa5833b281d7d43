(* Tests for the alternative distinct sketches (BJKST, HyperLogLog) and
   their conformance to the shared DISTINCT_SKETCH behaviour. *)

module Rng = Wd_hashing.Rng
module Bjkst = Wd_sketch.Bjkst
module Hll = Wd_sketch.Hyperloglog
module Fanout = Wd_view.Fanout_sketch

let fill_b sk lo hi =
  for v = lo to hi - 1 do
    ignore (Bjkst.add sk v : bool)
  done

let fill_h sk lo hi =
  for v = lo to hi - 1 do
    ignore (Hll.add sk v : bool)
  done

(* --- BJKST --- *)

let test_bjkst_small_exact () =
  let fam = Bjkst.family_custom ~rng:(Rng.create 31) ~k:256 in
  let sk = Bjkst.create fam in
  fill_b sk 0 100;
  (* Below k, the summary stores every distinct hash: exact. *)
  Alcotest.(check (float 0.001)) "exact below k" 100.0 (Bjkst.estimate sk)

let test_bjkst_accuracy () =
  let fam = Bjkst.family_custom ~rng:(Rng.create 32) ~k:1024 in
  List.iter
    (fun n ->
      let sk = Bjkst.create fam in
      fill_b sk 0 n;
      let est = Bjkst.estimate sk in
      let rel = Float.abs (est -. Float.of_int n) /. Float.of_int n in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d est=%.0f rel=%.3f" n est rel)
        true (rel < 0.15))
    [ 5_000; 50_000 ]

let test_bjkst_duplicates () =
  let fam = Bjkst.family_custom ~rng:(Rng.create 33) ~k:64 in
  let once = Bjkst.create fam and many = Bjkst.create fam in
  fill_b once 0 1_000;
  for _ = 1 to 4 do
    fill_b many 0 1_000
  done;
  Alcotest.(check bool) "duplicate insensitive" true (Bjkst.equal once many)

let test_bjkst_merge_union () =
  let fam = Bjkst.family_custom ~rng:(Rng.create 34) ~k:64 in
  let a = Bjkst.create fam and b = Bjkst.create fam and u = Bjkst.create fam in
  fill_b a 0 500;
  fill_b b 300 900;
  fill_b u 0 900;
  Bjkst.merge_into ~dst:a b;
  Alcotest.(check bool) "merge equals union" true (Bjkst.equal a u);
  Alcotest.(check (float 0.001)) "same estimate" (Bjkst.estimate u)
    (Bjkst.estimate a)

let test_bjkst_size_bytes () =
  let fam = Bjkst.family_custom ~rng:(Rng.create 35) ~k:64 in
  let sk = Bjkst.create fam in
  Alcotest.(check int) "empty is free" 0 (Bjkst.size_bytes sk);
  fill_b sk 0 10;
  Alcotest.(check int) "8 bytes per stored value" 80 (Bjkst.size_bytes sk);
  fill_b sk 0 1_000;
  Alcotest.(check int) "capped at 8k" (8 * 64) (Bjkst.size_bytes sk)

let test_bjkst_add_changed () =
  let fam = Bjkst.family_custom ~rng:(Rng.create 36) ~k:8 in
  let sk = Bjkst.create fam in
  Alcotest.(check bool) "first add changes" true (Bjkst.add sk 5);
  Alcotest.(check bool) "repeat add does not" false (Bjkst.add sk 5)

(* Merging a sketch of another family is rejected: the same k with a
   different hash would silently mix hash spaces. *)
let test_bjkst_foreign_family () =
  let a = Bjkst.create (Bjkst.family_custom ~rng:(Rng.create 37) ~k:64) in
  List.iter
    (fun fam ->
      let b = Bjkst.create fam in
      fill_b b 0 100;
      Alcotest.check_raises "foreign family"
        (Invalid_argument "Bjkst.merge_into: sketches from different families")
        (fun () -> Bjkst.merge_into ~dst:a b))
    [
      Bjkst.family_custom ~rng:(Rng.create 38) ~k:64;
      Bjkst.family_custom ~rng:(Rng.create 37) ~k:32;
    ];
  Alcotest.(check bool) "dst untouched" true (Bjkst.estimate a = 0.0)

(* --- HyperLogLog --- *)

let test_hll_accuracy () =
  let fam = Hll.family_custom ~rng:(Rng.create 41) ~registers:1024 in
  List.iter
    (fun n ->
      let sk = Hll.create fam in
      fill_h sk 0 n;
      let est = Hll.estimate sk in
      let rel = Float.abs (est -. Float.of_int n) /. Float.of_int n in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d est=%.0f rel=%.3f" n est rel)
        true (rel < 0.15))
    [ 100; 5_000; 100_000 ]

let test_hll_duplicates () =
  let fam = Hll.family_custom ~rng:(Rng.create 42) ~registers:64 in
  let once = Hll.create fam and many = Hll.create fam in
  fill_h once 0 1_000;
  for _ = 1 to 4 do
    fill_h many 0 1_000
  done;
  Alcotest.(check bool) "duplicate insensitive" true (Hll.equal once many)

let test_hll_merge_union () =
  let fam = Hll.family_custom ~rng:(Rng.create 43) ~registers:64 in
  let a = Hll.create fam and b = Hll.create fam and u = Hll.create fam in
  fill_h a 0 500;
  fill_h b 300 900;
  fill_h u 0 900;
  Hll.merge_into ~dst:a b;
  Alcotest.(check bool) "merge equals union" true (Hll.equal a u)

let test_hll_size_bytes () =
  let fam = Hll.family_custom ~rng:(Rng.create 44) ~registers:256 in
  Alcotest.(check int) "1 byte per register" 256 (Hll.size_bytes (Hll.create fam))

let test_hll_register_validation () =
  Alcotest.check_raises "non power of two"
    (Invalid_argument
       "Hyperloglog.family_custom: registers must be a power of two >= 16")
    (fun () ->
      ignore (Hll.family_custom ~rng:(Rng.create 1) ~registers:100 : Hll.family))

let test_hll_family_sizing () =
  let fam = Hll.family ~rng:(Rng.create 45) ~accuracy:0.05 ~confidence:0.9 in
  Alcotest.(check bool)
    (Printf.sprintf "registers=%d for 5%%" (Hll.registers fam))
    true
    (Hll.registers fam >= 433)

(* The bias constant at and below the constructible minimum of 16
   registers: small m must clamp to the m=16 constant, never extrapolate
   the asymptotic formula downward. *)
let test_hll_alpha_boundary () =
  let check name expected got =
    Alcotest.(check (float 1e-12)) name expected got
  in
  check "alpha 16" 0.673 (Hll.alpha 16);
  check "alpha 8 clamps to m=16 constant" 0.673 (Hll.alpha 8);
  check "alpha 1 clamps to m=16 constant" 0.673 (Hll.alpha 1);
  check "alpha 32" 0.697 (Hll.alpha 32);
  check "alpha 64" 0.709 (Hll.alpha 64);
  check "alpha 128 asymptotic" (0.7213 /. (1.0 +. (1.079 /. 128.0)))
    (Hll.alpha 128);
  (* No family can be built below the clamp point, so the clamp is the
     only path that can ever see m < 16. *)
  Alcotest.check_raises "registers 8 rejected"
    (Invalid_argument
       "Hyperloglog.family_custom: registers must be a power of two >= 16")
    (fun () ->
      ignore (Hll.family_custom ~rng:(Rng.create 1) ~registers:8 : Hll.family));
  let loosest = Hll.family ~rng:(Rng.create 46) ~accuracy:0.99 ~confidence:0.01 in
  Alcotest.(check bool)
    "sized family never below 16" true
    (Hll.registers loosest >= 16)

(* A larger, a smaller and an equal-sized foreign family: a register
   prefix, an out-of-bounds read and mixed hash spaces before the
   check. *)
let test_hll_foreign_family () =
  let a = Hll.create (Hll.family_custom ~rng:(Rng.create 47) ~registers:64) in
  List.iter
    (fun registers ->
      let b = Hll.create (Hll.family_custom ~rng:(Rng.create 48) ~registers) in
      fill_h b 0 100;
      Alcotest.check_raises
        (Printf.sprintf "foreign family, %d registers" registers)
        (Invalid_argument
           "Hyperloglog.merge_into: sketches from different families")
        (fun () -> Hll.merge_into ~dst:a b))
    [ 128; 16; 64 ];
  Alcotest.(check (float 0.0)) "dst untouched" 0.0 (Hll.estimate a)

(* --- Cross-sketch conformance through the functor interface --- *)

module Conformance (S : Wd_sketch.Sketch_intf.DISTINCT_SKETCH) = struct
  let run () =
    let fam = S.family ~rng:(Rng.create 55) ~accuracy:0.1 ~confidence:0.9 in
    let a = S.create fam and b = S.create fam in
    for v = 0 to 999 do
      ignore (S.add a v : bool)
    done;
    for v = 500 to 1_499 do
      ignore (S.add b v : bool)
    done;
    S.merge_into ~dst:a b;
    let est = S.estimate a in
    let rel = Float.abs (est -. 1_500.0) /. 1_500.0 in
    Alcotest.(check bool)
      (Printf.sprintf "%s merged estimate %.0f within 30%%" S.name est)
      true (rel < 0.30);
    Alcotest.(check bool)
      (Printf.sprintf "%s has positive wire size" S.name)
      true
      (S.size_bytes a > 0)
end

module Fm_conf = Conformance (Wd_sketch.Fm)
module Bjkst_conf = Conformance (Wd_sketch.Bjkst)
module Hll_conf = Conformance (Wd_sketch.Hyperloglog)

(* --- QCheck: BJKST/HLL merge = direct insertion --- *)

let stream_gen = QCheck.(list_of_size (Gen.int_range 0 200) (int_range 0 5_000))

let prop_bjkst_merge_direct =
  QCheck.Test.make ~name:"bjkst merge = direct insertion"
    QCheck.(pair stream_gen stream_gen)
    (fun (xs, ys) ->
      let fam = Bjkst.family_custom ~rng:(Rng.create 66) ~k:32 in
      let a = Bjkst.create fam and b = Bjkst.create fam and d = Bjkst.create fam in
      List.iter (fun v -> ignore (Bjkst.add a v : bool)) xs;
      List.iter (fun v -> ignore (Bjkst.add b v : bool)) ys;
      List.iter (fun v -> ignore (Bjkst.add d v : bool)) (xs @ ys);
      Bjkst.merge_into ~dst:a b;
      Bjkst.equal a d)

let prop_hll_merge_direct =
  QCheck.Test.make ~name:"hll merge = direct insertion"
    QCheck.(pair stream_gen stream_gen)
    (fun (xs, ys) ->
      let fam = Hll.family_custom ~rng:(Rng.create 67) ~registers:16 in
      let a = Hll.create fam and b = Hll.create fam and d = Hll.create fam in
      List.iter (fun v -> ignore (Hll.add a v : bool)) xs;
      List.iter (fun v -> ignore (Hll.add b v : bool)) ys;
      List.iter (fun v -> ignore (Hll.add d v : bool)) (xs @ ys);
      Hll.merge_into ~dst:a b;
      Hll.equal a d)

(* --- The FM family's incremental statistic against the O(m) scan --- *)

(* A transcription of the estimate as it was computed before the
   statistic became incremental: scan the bitmaps for the lowest-zero
   sum, the empty count and the MLE histogram, then run the original
   linear-counting blend and the original (clobbering) MLE solver.
   [Int64.bits_of_float] of the sketch's estimate must equal this
   reference after every operation. *)
module Scan = struct
  let phi = Wd_sketch.Fm_bitmap.phi

  let lowest_zero b =
    let z = ref 0 in
    while !z < 64 && Int64.logand (Int64.shift_right_logical b !z) 1L = 1L do
      incr z
    done;
    !z

  let linear_blend ~m ~empty ~raw =
    if empty <= 0 || m <= 1.0 then raw
    else begin
      let lc = m *. Float.log (m /. Float.of_int empty) in
      if raw <= 2.0 *. m then lc
      else if raw >= 3.0 *. m then raw
      else begin
        let w = ((raw /. m) -. 2.0) /. (3.0 -. 2.0) in
        ((1.0 -. w) *. lc) +. (w *. raw)
      end
    end

  let weights = Array.init 65 (fun i -> Float.ldexp 1.0 (-(i + 1)))

  let solve ~a ~total ~init =
    let n = Array.length a in
    if not (Array.exists (fun x -> x > 0) a) then 0.0
    else begin
      let eval lambda =
        let s = ref 0.0 in
        for i = 0 to n - 1 do
          if a.(i) > 0 then begin
            let x = lambda *. weights.(i) in
            if x < 45.0 then
              s := !s +. (Float.of_int a.(i) *. weights.(i) /. Float.expm1 x)
          end
        done;
        !s -. total
      in
      let eval' lambda =
        let s = ref 0.0 in
        for i = 0 to n - 1 do
          if a.(i) > 0 then begin
            let wi = weights.(i) in
            let x = lambda *. wi in
            if x < 45.0 then begin
              let e = Float.expm1 x in
              s := !s -. (Float.of_int a.(i) *. wi *. wi *. (e +. 1.0) /. (e *. e))
            end
          end
        done;
        !s
      in
      let lo = ref 0.0 and hi = ref (if init > 0.0 then init else 1.0) in
      let rounds = ref 0 in
      while eval !hi > 0.0 && !rounds < 300 do
        lo := !hi;
        hi := !hi *. 2.0;
        incr rounds
      done;
      let lambda = ref (0.5 *. (!lo +. !hi)) in
      let converged = ref false and iter = ref 0 in
      while (not !converged) && !iter < 80 do
        incr iter;
        let f = eval !lambda in
        if f > 0.0 then lo := !lambda else hi := !lambda;
        let f' = eval' !lambda in
        let next =
          if f' < 0.0 then !lambda -. (f /. f') else 0.5 *. (!lo +. !hi)
        in
        let next =
          if next > !lo && next < !hi then next else 0.5 *. (!lo +. !hi)
        in
        if Float.abs (next -. !lambda) <= 1e-10 *. Float.max next 1.0 then
          converged := true;
        lambda := next
      done;
      !lambda
    end

  let fm_mle counts ~init =
    let total = ref 0.0 in
    for z = 0 to 64 do
      total := !total +. (Float.of_int counts.(z) *. weights.(z))
    done;
    let acc = ref 0 in
    for i = 64 downto 0 do
      let c = counts.(i) in
      counts.(i) <- !acc;
      acc := !acc + c
    done;
    solve ~a:counts ~total:!total ~init

  let estimate ~stochastic ~mle (bitmaps : int64 array) =
    let m = Array.length bitmaps in
    let sum = ref 0 and empty = ref 0 and counts = Array.make 65 0 in
    Array.iter
      (fun b ->
        let z = lowest_zero b in
        sum := !sum + z;
        counts.(z) <- counts.(z) + 1;
        if b = 0L then incr empty)
      bitmaps;
    let mf = Float.of_int m in
    let pow2_mean =
      Float.ldexp
        (2.0 ** (Float.of_int (!sum mod m) /. mf))
        (!sum / m)
    in
    let classic =
      if stochastic then
        linear_blend ~m:mf ~empty:!empty ~raw:(mf *. pow2_mean /. phi)
      else pow2_mean /. phi
    in
    if not mle then classic
    else
      let scale = if stochastic then mf else 1.0 in
      scale *. fm_mle counts ~init:(classic /. scale)
end

(* One sketch type behind the operations the property drives.
   [registers] is the sketch's own wire image when it has one;
   [rebuild] inserts an item set into a fresh sketch of the same hash
   and returns its bitmaps — the reference register state. *)
type subject =
  | Subject : {
      create : unit -> 's;
      add : 's -> int -> bool;
      add_batch : 's -> int array -> unit;
      merge_into : dst:'s -> 's -> unit;
      copy : 's -> 's;
      roundtrip : 's -> 's;
      estimate : 's -> float;
      is_empty : 's -> bool;
      registers : 's -> int64 array option;
      rebuild : int list -> int64 array;
      stochastic : bool;
      mle : bool;
    }
      -> subject

let words_of_bytes b = Array.init (Bytes.length b / 8) (fun j -> Bytes.get_int64_le b (8 * j))

let estimator mle =
  Wd_sketch.Sketch_intf.(if mle then Mle else Classic)

let fm_subject ~variant ~mle ~m ~seed =
  let module Fm = Wd_sketch.Fm in
  let fam =
    Fm.with_estimator (estimator mle)
      (Fm.family_custom ~rng:(Rng.create seed) ~variant ~bitmaps:m)
  in
  let bytes s = words_of_bytes (Fm.to_bytes s) in
  Subject
    {
      create = (fun () -> Fm.create fam);
      add = Fm.add;
      add_batch = Fm.add_batch;
      merge_into = Fm.merge_into;
      copy = Fm.copy;
      roundtrip = (fun s -> Fm.of_bytes fam (Fm.to_bytes s));
      estimate = Fm.estimate;
      is_empty = Fm.is_empty;
      registers = (fun s -> Some (bytes s));
      rebuild =
        (fun items ->
          let s = Fm.create fam in
          List.iter (fun v -> ignore (Fm.add s v : bool)) items;
          bytes s);
      stochastic = variant = Fm.Stochastic;
      mle;
    }

let fmc_family ~mle ~m ~seed =
  let module Fmc = Wd_sketch.Fm_concentrated in
  Fmc.with_estimator (estimator mle)
    (Fmc.family_custom ~rng:(Rng.create seed) ~buckets:m)

let fmc_rebuild fam items =
  let module Fmc = Wd_sketch.Fm_concentrated in
  let s = Fmc.create fam in
  List.iter (fun v -> ignore (Fmc.add s v : bool)) items;
  words_of_bytes (Fmc.to_bytes s)

let fmc_subject ~mle ~m ~seed =
  let module Fmc = Wd_sketch.Fm_concentrated in
  let fam = fmc_family ~mle ~m ~seed in
  Subject
    {
      create = (fun () -> Fmc.create fam);
      add = Fmc.add;
      add_batch = Fmc.add_batch;
      merge_into = Fmc.merge_into;
      copy = Fmc.copy;
      roundtrip = (fun s -> Fmc.of_bytes fam (Fmc.to_bytes s));
      estimate = Fmc.estimate;
      is_empty = Fmc.is_empty;
      registers = (fun s -> Some (words_of_bytes (Fmc.to_bytes s)));
      rebuild = fmc_rebuild fam;
      stochastic = true;
      mle;
    }

(* Every fanout family of the property lives on this one plane, Classic
   and Mle alike, so sketches of many families share its memo and
   arena.  Its hash is the one [Fm_concentrated] draws from the same
   seed, so an Fm_concentrated rebuild gives the reference registers. *)
let plane_seed = 71
let shared_plane = lazy (Fanout.plane ~rng:(Rng.create plane_seed) ())

let fanout_subject ~mle ~m =
  let fam =
    Fanout.with_estimator (estimator mle)
      (Fanout.family_custom ~plane:(Lazy.force shared_plane) ~buckets:m)
  in
  Subject
    {
      create = (fun () -> Fanout.create fam);
      add = Fanout.add;
      add_batch = Fanout.add_batch;
      merge_into = Fanout.merge_into;
      copy = Fanout.copy;
      roundtrip = Fanout.copy;
      estimate = Fanout.estimate;
      is_empty = Fanout.is_empty;
      registers = (fun _ -> None);
      rebuild = fmc_rebuild (fmc_family ~mle ~m ~seed:plane_seed);
      stochastic = true;
      mle;
    }

type op =
  | Add of int * int
  | Batch of int * int list
  | Merge of int * int (* dst, src; dst = src is a self-merge *)
  | Merge_copy of int * int (* merge a copy of src *)
  | Copy of int * int (* slot dst := copy of src *)
  | Roundtrip of int (* slot := of_bytes (to_bytes slot) *)

let slots = 3

let show_op = function
  | Add (i, v) -> Printf.sprintf "add %d %d" i v
  | Batch (i, vs) ->
    Printf.sprintf "batch %d [%s]" i (String.concat ";" (List.map string_of_int vs))
  | Merge (d, s) -> Printf.sprintf "merge %d<-%d" d s
  | Merge_copy (d, s) -> Printf.sprintf "merge %d<-copy %d" d s
  | Copy (d, s) -> Printf.sprintf "copy %d:=%d" d s
  | Roundtrip i -> Printf.sprintf "roundtrip %d" i

let op_gen =
  let open QCheck.Gen in
  let slot = int_range 0 (slots - 1) and item = int_range 0 299 in
  frequency
    [
      (6, map2 (fun i v -> Add (i, v)) slot item);
      (3, map2 (fun i vs -> Batch (i, vs)) slot (list_size (int_range 0 30) item));
      (3, map2 (fun d s -> Merge (d, s)) slot slot);
      (1, map2 (fun d s -> Merge_copy (d, s)) slot slot);
      (1, map2 (fun d s -> Copy (d, s)) slot slot);
      (1, map (fun i -> Roundtrip i) slot);
    ]

(* (bitmap count, hash seed, operations) *)
let case_arb =
  QCheck.make
    ~print:(fun (m, seed, ops) ->
      Printf.sprintf "m=%d seed=%d [%s]" m seed
        (String.concat "; " (List.map show_op ops)))
    QCheck.Gen.(
      triple (int_range 1 40) (int_range 0 1_000)
        (list_size (int_range 1 25) op_gen))

let union a b = List.sort_uniq compare (a @ b)

(* Drives [ops] on [slots] sketches next to their item sets.  After
   every step each sketch's registers equal a rebuild from its item set
   (so copies stayed independent), and its estimate is bit-identical to
   the scan over those registers. *)
let run_ops (Subject s) ops =
  let sk = Array.init slots (fun _ -> s.create ()) in
  let items = Array.make slots [] in
  let check step =
    for i = 0 to slots - 1 do
      let expect = s.rebuild items.(i) in
      (match s.registers sk.(i) with
      | Some regs when regs <> expect ->
        QCheck.Test.fail_reportf "step %d slot %d: registers differ from rebuild" step i
      | _ -> ());
      let want = Scan.estimate ~stochastic:s.stochastic ~mle:s.mle expect in
      let got = s.estimate sk.(i) in
      if Int64.bits_of_float got <> Int64.bits_of_float want then
        QCheck.Test.fail_reportf "step %d slot %d: estimate %h, scan %h" step i got want;
      if s.is_empty sk.(i) <> (items.(i) = []) then
        QCheck.Test.fail_reportf "step %d slot %d: is_empty wrong" step i
    done
  in
  check 0;
  List.iteri
    (fun step op ->
      (match op with
      | Add (i, v) ->
        let fresh = not (List.mem v items.(i)) in
        let changed = s.add sk.(i) v in
        if changed && not fresh then
          QCheck.Test.fail_reportf "step %d: a duplicate add changed the sketch" step;
        items.(i) <- union items.(i) [ v ]
      | Batch (i, vs) ->
        s.add_batch sk.(i) (Array.of_list vs);
        items.(i) <- union items.(i) vs
      | Merge (d, src) ->
        s.merge_into ~dst:sk.(d) sk.(src);
        items.(d) <- union items.(d) items.(src)
      | Merge_copy (d, src) ->
        s.merge_into ~dst:sk.(d) (s.copy sk.(src));
        items.(d) <- union items.(d) items.(src)
      | Copy (d, src) ->
        sk.(d) <- s.copy sk.(src);
        items.(d) <- items.(src)
      | Roundtrip i -> sk.(i) <- s.roundtrip sk.(i));
      check (step + 1))
    ops;
  true

let prop_incremental name make =
  QCheck.Test.make ~count:150 ~name case_arb (fun (m, seed, ops) ->
      run_ops (make ~m ~seed) ops)

let incremental_props =
  List.concat_map
    (fun mle ->
      let e = if mle then "mle" else "classic" in
      [
        prop_incremental ("fm averaged " ^ e ^ " = scan")
          (fm_subject ~variant:Wd_sketch.Fm.Averaged ~mle);
        prop_incremental ("fm stochastic " ^ e ^ " = scan")
          (fm_subject ~variant:Wd_sketch.Fm.Stochastic ~mle);
        prop_incremental ("fmc " ^ e ^ " = scan") (fmc_subject ~mle);
        prop_incremental ("fanout " ^ e ^ " = scan") (fun ~m ~seed:_ ->
            fanout_subject ~mle ~m);
      ])
    [ false; true ]

(* --- Allocation: add_batch on a warmed sketch allocates nothing --- *)

let alloc_items =
  let g = Rng.create 31 in
  Array.init 100_000 (fun _ -> Rng.int g 1_000_000)

let add_batch_words (type s)
    (module S : Wd_sketch.Sketch_intf.DISTINCT_SKETCH with type t = s)
    (sk : s) =
  S.add_batch sk alloc_items;
  let w0 = Gc.minor_words () in
  S.add_batch sk alloc_items;
  Gc.minor_words () -. w0

let test_add_batch_allocates_nothing () =
  let module Fm = Wd_sketch.Fm in
  let module Fmc = Wd_sketch.Fm_concentrated in
  let fm variant =
    Fm.create (Fm.family_custom ~rng:(Rng.create 32) ~variant ~bitmaps:64)
  in
  let cases =
    [
      ("fm stochastic", add_batch_words (module Fm) (fm Fm.Stochastic));
      ("fm averaged", add_batch_words (module Fm) (fm Fm.Averaged));
      ( "fmc",
        add_batch_words (module Fmc)
          (Fmc.of_params ~alpha:0.1 ~delta:0.05 ~seed:33) );
      ( "hll",
        add_batch_words (module Hll)
          (Hll.of_params ~alpha:0.1 ~delta:0.05 ~seed:34) );
    ]
  in
  List.iter
    (fun (name, words) ->
      Alcotest.(check (float 0.0))
        (name ^ ": minor words in add_batch") 0.0 words)
    cases

(* A warmed estimate reads the incremental statistic and allocates
   nothing but its result: a float returned from a non-inlined function
   is boxed, 2 words on a 64-bit host, so that box is subtracted. *)
let estimate_words (type s)
    (module S : Wd_sketch.Sketch_intf.DISTINCT_SKETCH with type t = s)
    (sk : s) =
  S.add_batch sk alloc_items;
  let calls = 1_000 in
  ignore (S.estimate sk : float);
  let w0 = Gc.minor_words () in
  for _ = 1 to calls do
    ignore (S.estimate sk : float)
  done;
  ((Gc.minor_words () -. w0) /. Float.of_int calls) -. 2.0

let test_estimate_allocates_nothing () =
  let module Fm = Wd_sketch.Fm in
  let module Fmc = Wd_sketch.Fm_concentrated in
  let rng () = Rng.create 35 in
  let plane = Fanout.plane ~rng:(rng ()) () in
  List.iter
    (fun (e, est) ->
      let fm variant =
        Fm.create
          (Fm.with_estimator est
             (Fm.family_custom ~rng:(rng ()) ~variant ~bitmaps:64))
      in
      let cases =
        [
          ("fm stochastic", estimate_words (module Fm) (fm Fm.Stochastic));
          ("fm averaged", estimate_words (module Fm) (fm Fm.Averaged));
          ( "fmc",
            estimate_words (module Fmc)
              (Fmc.create
                 (Fmc.with_estimator est
                    (Fmc.family_custom ~rng:(rng ()) ~buckets:64))) );
          ( "fanout",
            estimate_words (module Fanout)
              (Fanout.create
                 (Fanout.with_estimator est
                    (Fanout.family_custom ~plane ~buckets:64))) );
        ]
      in
      List.iter
        (fun (name, words) ->
          Alcotest.(check (float 0.0))
            (Printf.sprintf "%s %s: minor words per estimate beyond its result"
               name e)
            0.0 words)
        cases)
    Wd_sketch.Sketch_intf.[ ("classic", Classic); ("mle", Mle) ]

let () =
  let rand = Random.State.make [| Prop.seed |] in
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [ prop_bjkst_merge_direct; prop_hll_merge_direct ]
    @ List.map (QCheck_alcotest.to_alcotest ~rand) incremental_props
  in
  Alcotest.run "distinct-sketches"
    [
      ( "bjkst",
        [
          Alcotest.test_case "small exact" `Quick test_bjkst_small_exact;
          Alcotest.test_case "accuracy" `Quick test_bjkst_accuracy;
          Alcotest.test_case "duplicates" `Quick test_bjkst_duplicates;
          Alcotest.test_case "merge union" `Quick test_bjkst_merge_union;
          Alcotest.test_case "size bytes" `Quick test_bjkst_size_bytes;
          Alcotest.test_case "add changed" `Quick test_bjkst_add_changed;
          Alcotest.test_case "foreign family" `Quick test_bjkst_foreign_family;
        ] );
      ( "hyperloglog",
        [
          Alcotest.test_case "accuracy" `Quick test_hll_accuracy;
          Alcotest.test_case "duplicates" `Quick test_hll_duplicates;
          Alcotest.test_case "merge union" `Quick test_hll_merge_union;
          Alcotest.test_case "size bytes" `Quick test_hll_size_bytes;
          Alcotest.test_case "register validation" `Quick
            test_hll_register_validation;
          Alcotest.test_case "family sizing" `Quick test_hll_family_sizing;
          Alcotest.test_case "alpha boundary" `Quick test_hll_alpha_boundary;
          Alcotest.test_case "foreign family" `Quick test_hll_foreign_family;
        ] );
      ( "conformance",
        [
          Alcotest.test_case "fm" `Quick Fm_conf.run;
          Alcotest.test_case "bjkst" `Quick Bjkst_conf.run;
          Alcotest.test_case "hll" `Quick Hll_conf.run;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "add_batch" `Quick
            test_add_batch_allocates_nothing;
          Alcotest.test_case "estimate" `Quick
            test_estimate_allocates_nothing;
        ] );
      ("properties", qsuite);
    ]
