(* Unit and property tests for the hashing substrate. *)

module Rng = Wd_hashing.Rng
module Splitmix = Wd_hashing.Splitmix
module Universal = Wd_hashing.Universal
module Tabulation = Wd_hashing.Tabulation
module Geometric = Wd_hashing.Geometric

let check_float = Alcotest.(check (float 1e-9))

(* --- Splitmix --- *)

let test_mix_deterministic () =
  Alcotest.(check bool)
    "same input same output" true
    (Int64.equal (Splitmix.mix 12345L) (Splitmix.mix 12345L));
  Alcotest.(check bool)
    "different inputs differ" false
    (Int64.equal (Splitmix.mix 1L) (Splitmix.mix 2L))

let test_mix_avalanche () =
  (* Flipping one input bit should flip roughly half the output bits. *)
  let popcount x =
    let c = ref 0 in
    for i = 0 to 63 do
      if Int64.logand (Int64.shift_right_logical x i) 1L = 1L then incr c
    done;
    !c
  in
  let total = ref 0 in
  let trials = 200 in
  for t = 1 to trials do
    let x = Int64.of_int (t * 7919) in
    let y = Int64.logxor x (Int64.shift_left 1L (t mod 64)) in
    total := !total + popcount (Int64.logxor (Splitmix.mix x) (Splitmix.mix y))
  done;
  let avg = Float.of_int !total /. Float.of_int trials in
  Alcotest.(check bool)
    (Printf.sprintf "avalanche average %.1f in [24, 40]" avg)
    true
    (avg > 24.0 && avg < 40.0)

let test_generator_streams () =
  let a = Splitmix.create 9L and b = Splitmix.create 9L in
  for _ = 1 to 10 do
    Alcotest.(check bool)
      "equal seeds give equal streams" true
      (Int64.equal (Splitmix.next a) (Splitmix.next b))
  done;
  let c = Splitmix.split a in
  Alcotest.(check bool)
    "split stream diverges" false
    (Int64.equal (Splitmix.next a) (Splitmix.next c))

let test_state_roundtrip () =
  let g = Splitmix.create 77L in
  ignore (Splitmix.next g : int64);
  let snapshot = Splitmix.state g in
  let h = Splitmix.of_state snapshot in
  Alcotest.(check bool)
    "restored state continues identically" true
    (Int64.equal (Splitmix.next g) (Splitmix.next h))

(* --- Rng --- *)

let test_rng_copy_independent () =
  let g = Rng.create 3 in
  ignore (Rng.int64 g : int64);
  let h = Rng.copy g in
  let from_g = Rng.int64 g in
  let from_h = Rng.int64 h in
  Alcotest.(check bool) "copy continues from same point" true
    (Int64.equal from_g from_h);
  ignore (Rng.int64 g : int64);
  let g3 = Rng.int64 g and h2 = Rng.int64 h in
  Alcotest.(check bool) "streams advance independently" false
    (Int64.equal g3 h2)

let test_rng_int_bounds () =
  let g = Rng.create 4 in
  for _ = 1 to 1000 do
    let v = Rng.int g 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_int_rejects_nonpositive () =
  let g = Rng.create 5 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int g 0 : int))

let test_rng_int_uniformity () =
  (* Chi-square-ish sanity: each of 10 buckets gets 10% +- 2.5%. *)
  let g = Rng.create 6 in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let v = Rng.int g 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      let f = Float.of_int c /. Float.of_int n in
      Alcotest.(check bool)
        (Printf.sprintf "bucket %d frequency %.4f" i f)
        true
        (f > 0.075 && f < 0.125))
    buckets

let test_rng_float_range () =
  let g = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.float g 2.5 in
    Alcotest.(check bool) "in [0, 2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_geometric_level_distribution () =
  let g = Rng.create 8 in
  let n = 200_000 in
  let at_least = Array.make 8 0 in
  for _ = 1 to n do
    let l = Rng.geometric_level g in
    for i = 0 to min l 7 do
      at_least.(i) <- at_least.(i) + 1
    done
  done;
  (* Pr[level >= i] = 2^-i. *)
  for i = 0 to 7 do
    let expected = 2.0 ** Float.of_int (-i) in
    let got = Float.of_int at_least.(i) /. Float.of_int n in
    Alcotest.(check bool)
      (Printf.sprintf "Pr[level >= %d] = %.4f vs %.4f" i got expected)
      true
      (Float.abs (got -. expected) < 0.02 +. (0.1 *. expected))
  done

(* --- Universal / Tabulation / Geometric --- *)

let test_universal_deterministic () =
  let h = Universal.create ~seed:99L in
  Alcotest.(check bool) "stable" true
    (Int64.equal (Universal.hash h 42) (Universal.hash h 42))

let test_universal_seeds_differ () =
  let h1 = Universal.create ~seed:1L and h2 = Universal.create ~seed:2L in
  let differ = ref 0 in
  for v = 0 to 99 do
    if not (Int64.equal (Universal.hash h1 v) (Universal.hash h2 v)) then
      incr differ
  done;
  Alcotest.(check bool) "most outputs differ across seeds" true (!differ > 95)

let test_to_range () =
  let g = Rng.create 10 in
  let h = Universal.of_rng g in
  for v = 0 to 999 do
    let r = Universal.to_range h ~buckets:7 v in
    Alcotest.(check bool) "bucket in range" true (r >= 0 && r < 7)
  done

let test_multiply_shift_spread () =
  let g = Rng.create 11 in
  let h = Universal.multiply_shift g in
  let buckets = Array.make 16 0 in
  for v = 0 to 9999 do
    let r = Universal.to_range h ~buckets:16 v in
    buckets.(r) <- buckets.(r) + 1
  done;
  Array.iter
    (fun c ->
      Alcotest.(check bool) "roughly uniform buckets" true (c > 400 && c < 900))
    buckets

let test_tabulation_spread () =
  let g = Rng.create 12 in
  let h = Tabulation.create g in
  let buckets = Array.make 16 0 in
  for v = 0 to 9999 do
    let r = Int64.to_int (Int64.logand (Tabulation.hash h v) 15L) in
    buckets.(r) <- buckets.(r) + 1
  done;
  Array.iter
    (fun c ->
      Alcotest.(check bool) "roughly uniform buckets" true (c > 400 && c < 900))
    buckets

let test_trailing_zeros () =
  Alcotest.(check int) "tz 0 = 64" 64 (Geometric.trailing_zeros 0L);
  Alcotest.(check int) "tz 1 = 0" 0 (Geometric.trailing_zeros 1L);
  Alcotest.(check int) "tz 8 = 3" 3 (Geometric.trailing_zeros 8L);
  Alcotest.(check int) "tz 2^40 = 40" 40
    (Geometric.trailing_zeros (Int64.shift_left 1L 40));
  Alcotest.(check int) "tz min_int = 63" 63
    (Geometric.trailing_zeros Int64.min_int)

let test_geometric_level_of_hash () =
  let g = Rng.create 13 in
  let h = Universal.of_rng g in
  let n = 100_000 in
  let count = Array.make 4 0 in
  for v = 0 to n - 1 do
    let l = Geometric.level h v in
    Alcotest.(check bool) "level within [0,63]" true (l >= 0 && l <= 63);
    if l <= 3 then count.(l) <- count.(l) + 1
  done;
  (* Pr[level = i] = 2^-(i+1). *)
  for i = 0 to 3 do
    let expected = 2.0 ** Float.of_int (-(i + 1)) in
    let got = Float.of_int count.(i) /. Float.of_int n in
    Alcotest.(check bool)
      (Printf.sprintf "Pr[level = %d] ~ %.3f" i expected)
      true
      (Float.abs (got -. expected) < 0.015)
  done

(* --- Native-int entry points: bit-identity pins --- *)

module Mixed_tabulation = Wd_hashing.Mixed_tabulation
module Fmc = Wd_sketch.Fm_concentrated
module Hll = Wd_sketch.Hyperloglog
module Fanout = Wd_view.Fanout_sketch

(* The hash entry points return native ints computed inside the hashing
   modules.  These are the int64 formulas they replace, transcribed
   here: every new entry point must equal them bit for bit. *)
module Int64_reference = struct
  let mixer ~seed x = Splitmix.mix (Int64.add (Splitmix.mix seed) x)

  (* [Universal.multiply_shift] draws a then b from the generator. *)
  let multiply_shift rng =
    let a = Int64.logor (Rng.int64 rng) 1L in
    let b = Rng.int64 rng in
    fun x ->
      let v = Int64.add (Int64.mul a x) b in
      Int64.logor (Int64.shift_right_logical v 32) (Int64.shift_left v 32)

  let level word = min 63 (Geometric.trailing_zeros word)

  let to_range word ~buckets =
    Int64.to_int (Int64.shift_right_logical word 2) mod buckets

  (* Bucket from the high 32 bits, level from the low 32, capped at 32:
     the concentrated-FM and fanout split. *)
  let pcsa word ~m =
    let low = Int64.logand word 0xFFFFFFFFL in
    ( Int64.to_int (Int64.shift_right_logical word 32) mod m,
      if low = 0L then 32 else Geometric.trailing_zeros low )

  let hll word ~log2m =
    let shift = 64 - log2m in
    let rest = Int64.logand word (Int64.pred (Int64.shift_left 1L shift)) in
    ( Int64.to_int (Int64.shift_right_logical word shift),
      if rest = 0L then 63 else min 63 (1 + Geometric.trailing_zeros rest) )
end

(* 100k keys over the whole int range: negatives, small ids and the
   extremes included. *)
let pin_keys =
  let g = Rng.create 2027 in
  let specials =
    [|
      0; 1; -1; 2; -2; min_int; max_int; min_int + 1; max_int - 1;
      1 lsl 31; 1 lsl 32; -(1 lsl 40); 0xFFFFFFFF;
    |]
  in
  Array.append specials
    (Array.init (100_000 - Array.length specials) (fun i ->
         if i land 1 = 0 then Int64.to_int (Rng.int64 g)
         else Rng.int g 2_000_000 - 1_000_000))

let check_all what f =
  Array.iter
    (fun v ->
      if not (f v) then
        Alcotest.failf "%s differs from the int64 formula at key %d" what v)
    pin_keys

let test_universal_pins () =
  let families =
    [
      ("mixer", Universal.create ~seed:77L, Int64_reference.mixer ~seed:77L);
      ( "multiply-shift",
        Universal.multiply_shift (Rng.create 78),
        Int64_reference.multiply_shift (Rng.create 78) );
    ]
  in
  List.iter
    (fun (name, h, word_of) ->
      let word v = word_of (Int64.of_int v) in
      check_all (name ^ " hash") (fun v ->
          Int64.equal (Universal.hash h v) (word v));
      check_all (name ^ " low_bits") (fun v ->
          Universal.low_bits h v = Int64.to_int (word v));
      check_all (name ^ " Geometric.level") (fun v ->
          Geometric.level h v = Int64_reference.level (word v));
      List.iter
        (fun buckets ->
          check_all (Printf.sprintf "%s to_range %d" name buckets) (fun v ->
              Universal.to_range h ~buckets v
              = Int64_reference.to_range (word v) ~buckets))
        [ 1; 7; 16; 1000; max_int ];
      List.iter
        (fun log2m ->
          check_all (Printf.sprintf "%s bucket_rank %d" name log2m) (fun v ->
              let s = Universal.bucket_rank h ~log2m v in
              (s lsr 6, s land 63) = Int64_reference.hll (word v) ~log2m))
        [ 1; 4; 10; 16; 56 ])
    families

let test_mixed_tabulation_split_pin () =
  let mt = Mixed_tabulation.create (Rng.create 79) in
  check_all "Mixed_tabulation.split" (fun v ->
      let s = Mixed_tabulation.split mt v in
      (s lsr 6, s land 63)
      = Int64_reference.pcsa (Mixed_tabulation.hash mt v) ~m:max_int)

(* The sketches on top: registers built from the int64 formulas.  Half
   the keys go through [add], half through [add_batch]. *)

let halves () =
  let half = Array.length pin_keys / 2 in
  ( Array.sub pin_keys 0 half,
    Array.sub pin_keys half (Array.length pin_keys - half) )

let test_fmc_split_pin () =
  let m = 97 in
  let mt = Mixed_tabulation.create (Rng.create 80) in
  let sk = Fmc.create (Fmc.family_custom ~rng:(Rng.create 80) ~buckets:m) in
  let first, second = halves () in
  Array.iter (fun v -> ignore (Fmc.add sk v : bool)) first;
  Fmc.add_batch sk second;
  let expected = Bytes.make (8 * m) '\000' in
  Array.iter
    (fun v ->
      let j, level = Int64_reference.pcsa (Mixed_tabulation.hash mt v) ~m in
      Bytes.set_int64_le expected (8 * j)
        (Int64.logor
           (Bytes.get_int64_le expected (8 * j))
           (Int64.shift_left 1L level)))
    pin_keys;
  Alcotest.(check bool)
    "fmc registers" true
    (Bytes.equal expected (Fmc.to_bytes sk))

let test_fanout_split_pin () =
  (* Two families on one plane share its memo; each item arrives twice
     in a row so that the second add of every pair hits the memo. *)
  let mt = Mixed_tabulation.create (Rng.create 81) in
  let plane = Fanout.plane ~rng:(Rng.create 81) () in
  let sizes = [| 16; 333 |] in
  let sketches =
    Array.map
      (fun m -> Fanout.create (Fanout.family_custom ~plane ~buckets:m))
      sizes
  in
  let regs = Array.map (fun m -> Array.make m 0) sizes in
  Array.iter
    (fun v ->
      for _ = 1 to 2 do
        Array.iteri
          (fun f sk ->
            let j, level =
              Int64_reference.pcsa (Mixed_tabulation.hash mt v) ~m:sizes.(f)
            in
            let bit = 1 lsl level in
            let fresh = regs.(f).(j) land bit = 0 in
            regs.(f).(j) <- regs.(f).(j) lor bit;
            if Fanout.add sk v <> fresh then
              Alcotest.failf "fanout (m=%d) add flag differs at key %d"
                sizes.(f) v)
          sketches
      done)
    pin_keys

let test_hll_rank_pin () =
  let registers = 1024 in
  let h = Universal.of_rng (Rng.create 82) in
  let sk = Hll.create (Hll.family_custom ~rng:(Rng.create 82) ~registers) in
  let first, second = halves () in
  Array.iter (fun v -> ignore (Hll.add sk v : bool)) first;
  Hll.add_batch sk second;
  let expected = Bytes.make registers '\000' in
  Array.iter
    (fun v ->
      let j, rank = Int64_reference.hll (Universal.hash h v) ~log2m:10 in
      if rank > Char.code (Bytes.get expected j) then
        Bytes.set expected j (Char.chr rank))
    pin_keys;
  Alcotest.(check bool)
    "hll registers" true
    (Bytes.equal expected (Hll.to_bytes sk))

(* --- Allocation: the native-int entry points allocate nothing --- *)

let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let test_entry_points_allocate_nothing () =
  let n = Array.length pin_keys in
  List.iter
    (fun (name, h) ->
      let acc = ref 0 in
      let level_words =
        minor_words (fun () ->
            for i = 0 to n - 1 do
              acc := !acc + Geometric.level h (Array.unsafe_get pin_keys i)
            done)
      in
      let range_words =
        minor_words (fun () ->
            for i = 0 to n - 1 do
              let v = Array.unsafe_get pin_keys i in
              acc := !acc + Universal.to_range h ~buckets:1000 v
            done)
      in
      ignore (Sys.opaque_identity !acc);
      Alcotest.(check (float 0.0))
        (name ^ ": Geometric.level words") 0.0 level_words;
      Alcotest.(check (float 0.0))
        (name ^ ": Universal.to_range words") 0.0 range_words)
    [
      ("mixer", Universal.of_rng (Rng.create 83));
      ("multiply-shift", Universal.multiply_shift (Rng.create 84));
    ]

(* --- QCheck properties --- *)

let prop_shuffle_is_permutation =
  QCheck.Test.make ~name:"shuffle preserves multiset"
    QCheck.(pair small_int (list small_int))
    (fun (seed, xs) ->
      let a = Array.of_list xs in
      let b = Array.copy a in
      Rng.shuffle_in_place (Rng.create seed) b;
      List.sort compare (Array.to_list a)
      = List.sort compare (Array.to_list b))

let prop_rng_int_in_bounds =
  QCheck.Test.make ~name:"Rng.int stays in bounds"
    QCheck.(pair small_int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let g = Rng.create seed in
      let v = Rng.int g bound in
      v >= 0 && v < bound)

let prop_mix_injective_on_small_domain =
  QCheck.Test.make ~name:"mix has no collisions on small domains"
    QCheck.(int_range 0 10_000)
    (fun base ->
      let seen = Hashtbl.create 256 in
      let ok = ref true in
      for v = base to base + 100 do
        let h = Splitmix.mix (Int64.of_int v) in
        if Hashtbl.mem seen h then ok := false;
        Hashtbl.replace seen h ()
      done;
      !ok)

let () =
  ignore check_float;
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_shuffle_is_permutation;
        prop_rng_int_in_bounds;
        prop_mix_injective_on_small_domain;
      ]
  in
  Alcotest.run "hashing"
    [
      ( "splitmix",
        [
          Alcotest.test_case "deterministic" `Quick test_mix_deterministic;
          Alcotest.test_case "avalanche" `Quick test_mix_avalanche;
          Alcotest.test_case "generator streams" `Quick test_generator_streams;
          Alcotest.test_case "state roundtrip" `Quick test_state_roundtrip;
        ] );
      ( "rng",
        [
          Alcotest.test_case "copy independence" `Quick test_rng_copy_independent;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int rejects 0" `Quick test_rng_int_rejects_nonpositive;
          Alcotest.test_case "int uniformity" `Quick test_rng_int_uniformity;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "geometric level" `Quick test_geometric_level_distribution;
        ] );
      ( "native ints",
        [
          Alcotest.test_case "universal and geometric" `Quick
            test_universal_pins;
          Alcotest.test_case "mixed tabulation split" `Quick
            test_mixed_tabulation_split_pin;
          Alcotest.test_case "fmc split" `Quick test_fmc_split_pin;
          Alcotest.test_case "fanout split" `Quick test_fanout_split_pin;
          Alcotest.test_case "hll rank" `Quick test_hll_rank_pin;
          Alcotest.test_case "no allocation" `Quick
            test_entry_points_allocate_nothing;
        ] );
      ( "hash families",
        [
          Alcotest.test_case "universal deterministic" `Quick test_universal_deterministic;
          Alcotest.test_case "universal seeds differ" `Quick test_universal_seeds_differ;
          Alcotest.test_case "to_range" `Quick test_to_range;
          Alcotest.test_case "multiply-shift spread" `Quick test_multiply_shift_spread;
          Alcotest.test_case "tabulation spread" `Quick test_tabulation_spread;
        ] );
      ( "geometric",
        [
          Alcotest.test_case "trailing zeros" `Quick test_trailing_zeros;
          Alcotest.test_case "level distribution" `Quick test_geometric_level_of_hash;
        ] );
      ("properties", qsuite);
    ]
