(* Tests for the simulation / measurement harness. *)

module Sim = Whats_different.Simulation
module Dc = Wd_protocol.Dc_tracker
module Ds = Wd_protocol.Ds_tracker
module Query = Wd_view.Query
module Stream = Wd_workload.Stream
module Stream_gen = Wd_workload.Stream_gen
module Http = Wd_workload.Http_trace

let stream = Stream_gen.zipf ~sites:4 ~events:20_000 ~universe:5_000 ()

let test_dc_report_consistency () =
  let r =
    Sim.run ~checkpoints:10 (Query.dc ~theta:0.05 ~alpha:0.05 Dc.LS) stream
  in
  Alcotest.(check int) "updates" (Stream.length stream) r.Sim.updates;
  Alcotest.(check int) "total = up + down"
    (r.Sim.bytes_up + r.Sim.bytes_down)
    r.Sim.total_bytes;
  Alcotest.(check int) "flat run pays no backbone" 0 r.Sim.backbone_bytes;
  Alcotest.(check int) "truth" (Stream.distinct_count stream)
    r.Sim.final_truth;
  Alcotest.(check int) "checkpoint count" 10 (Array.length r.Sim.bytes_series);
  (* Series is cumulative, hence nondecreasing, ending at the total. *)
  let last = ref 0 in
  Array.iter
    (fun (_, b) ->
      Alcotest.(check bool) "nondecreasing" true (b >= !last);
      last := b)
    r.Sim.bytes_series;
  Alcotest.(check int) "series ends at total" r.Sim.total_bytes !last;
  let final_err =
    Float.abs (r.Sim.final_estimate -. Float.of_int r.Sim.final_truth)
    /. Float.of_int r.Sim.final_truth
  in
  Alcotest.(check bool)
    (Printf.sprintf "final error %.3f within budget" final_err)
    true (final_err < 0.25)

let test_dc_deterministic () =
  let r1 = Sim.run ~seed:5 (Query.dc ~theta:0.05 ~alpha:0.05 Dc.NS) stream in
  let r2 = Sim.run ~seed:5 (Query.dc ~theta:0.05 ~alpha:0.05 Dc.NS) stream in
  Alcotest.(check int) "same bytes" r1.Sim.total_bytes r2.Sim.total_bytes;
  Alcotest.(check (float 0.0)) "same estimate" r1.Sim.final_estimate
    r2.Sim.final_estimate

let test_exact_dc_bytes_matches_ec_run () =
  let r = Sim.run (Query.dc ~theta:0.1 ~alpha:0.1 Dc.EC) stream in
  Alcotest.(check int) "closed form = EC run" (Sim.exact_dc_bytes stream)
    r.Sim.total_bytes

let ds_aux (r : Sim.run) =
  match r.Sim.aux with
  | Sim.Ds_aux { level; sample; max_count_error } ->
    (level, sample, max_count_error)
  | _ -> Alcotest.fail "ds run must carry Ds_aux"

let test_ds_report_consistency () =
  let r = Sim.run (Query.ds ~theta:0.3 ~threshold:64 Ds.LCO) stream in
  let _, sample, max_count_error = ds_aux r in
  Alcotest.(check int) "updates" (Stream.length stream) r.Sim.updates;
  Alcotest.(check bool) "sample bounded" true (List.length sample <= 64);
  Alcotest.(check bool)
    (Printf.sprintf "count error %.3f <= theta" max_count_error)
    true
    (max_count_error <= 0.3 +. 1e-9);
  let d = r.Sim.final_estimate in
  let n0 = Float.of_int (Stream.distinct_count stream) in
  Alcotest.(check bool)
    (Printf.sprintf "distinct estimate %.0f ~ %.0f" d n0)
    true
    (Float.abs (d -. n0) /. n0 < 0.5)

let test_exact_ds_bytes_matches_eds_run () =
  let r = Sim.run (Query.ds ~theta:0.3 ~threshold:64 Ds.EDS) stream in
  Alcotest.(check int) "closed form = EDS run" (Sim.exact_ds_bytes stream)
    r.Sim.total_bytes

let test_true_distinct_prefixes () =
  let prefixes = Sim.true_distinct_prefixes stream ~samples:5 in
  Alcotest.(check int) "5 samples" 5 (Array.length prefixes);
  let _, final = prefixes.(4) in
  Alcotest.(check int) "final is global truth"
    (Stream.distinct_count stream)
    final;
  (* Monotone. *)
  let last = ref 0 in
  Array.iter
    (fun (_, d) ->
      Alcotest.(check bool) "monotone" true (d >= !last);
      last := d)
    prefixes

let test_pair_stream_of_requests () =
  let cfg = { Http.default with requests = 5_000 } in
  let reqs = Http.generate cfg in
  let p = Sim.pair_stream_of_requests cfg Http.Per_region reqs in
  Alcotest.(check int) "length" (Array.length reqs) (Sim.pair_stream_length p);
  Alcotest.(check bool) "regions" true (Sim.pair_stream_sites p <= 4)

let hh_config = { Wd_aggregate.Fm_array.rows = 3; cols = 128; bitmaps = 10 }

let test_hh_report () =
  let cfg = { Http.default with requests = 5_000 } in
  let reqs = Http.generate cfg in
  let p = Sim.pair_stream_of_requests cfg Http.Per_region reqs in
  let r =
    Sim.run
      (Query.hh ~theta:0.2 ~config:hh_config Dc.LS)
      (Sim.stream_of_pairs p)
  in
  let avg_norm_error, topk_recall, exact_bytes =
    match r.Sim.aux with
    | Sim.Hh_aux { avg_norm_error; topk_recall; exact_bytes } ->
      (avg_norm_error, topk_recall, exact_bytes)
    | _ -> Alcotest.fail "hh run must carry Hh_aux"
  in
  Alcotest.(check int) "updates" (Sim.pair_stream_length p) r.Sim.updates;
  Alcotest.(check bool) "recall in [0,1]" true
    (topk_recall >= 0.0 && topk_recall <= 1.0);
  Alcotest.(check bool) "paid communication" true (r.Sim.total_bytes > 0);
  Alcotest.(check bool) "exact baseline positive" true (exact_bytes > 0);
  Alcotest.(check bool)
    (Printf.sprintf "norm error %.4f small" avg_norm_error)
    true (avg_norm_error < 0.05)

let test_sketch_ablation_runs () =
  (* The one driver must work over every pluggable sketch family. *)
  List.iter
    (fun sketch ->
      let r =
        Sim.run (Query.dc ~sketch ~theta:0.05 ~alpha:0.05 Dc.LS) stream
      in
      let err =
        Float.abs (r.Sim.final_estimate -. Float.of_int r.Sim.final_truth)
        /. Float.of_int r.Sim.final_truth
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: final error %.3f acceptable"
           (Query.sketch_to_string sketch) err)
        true (err < 0.25))
    [ Query.Bjkst; Query.Hll; Query.Fmc ]

(* --- The ground-truth table against a Hashtbl reference --- *)

module Truth = Sim.Truth_table

(* Keys probing from the last slot of [t]'s current array: the second
   of them has to wrap past the end. *)
let wrapping_keys t =
  let last = Truth.capacity t - 1 in
  let rec go k acc n =
    if n = 0 then acc
    else if Truth.home t k = last then go (k + 7919) (k :: acc) (n - 1)
    else go (k + 7919) acc n
  in
  go (-1_000_003) [] 3

let truth_table_agrees (counts, items) =
  let t = Truth.create ~counts 8 in
  let reference = Hashtbl.create 64 in
  let add v =
    let fresh = not (Hashtbl.mem reference v) in
    Hashtbl.replace reference v
      (1 + Option.value ~default:0 (Hashtbl.find_opt reference v));
    Truth.add t v = fresh
  in
  let capacity = ref 0 in
  let adds_agree =
    List.for_all
      (fun v ->
        let wraps_agree =
          Truth.capacity t = !capacity
          || begin
               capacity := Truth.capacity t;
               List.for_all add (wrapping_keys t)
             end
        in
        wraps_agree && add v)
      items
  in
  let multiplicity c = if counts then c else 1 in
  let expected =
    Hashtbl.fold (fun v c acc -> (v, multiplicity c) :: acc) reference []
    |> List.sort compare
  in
  adds_agree
  && Truth.length t = Hashtbl.length reference
  && List.for_all (fun (v, c) -> Truth.find t v = c) expected
  && List.for_all
       (fun v -> Hashtbl.mem reference v || Truth.find t v = 0)
       [ min_int; max_int; 0; -1; 42 ]
  && List.sort compare (Truth.fold (fun v c acc -> (v, c) :: acc) t [])
     = expected

let prop_truth_table =
  let item =
    QCheck.Gen.(
      frequency
        [
          (4, int);
          (3, int_range (-200) 200);
          (1, oneofl [ min_int; max_int; 0; -1; min_int + 1 ]);
        ])
  in
  QCheck.Test.make ~name:"truth table = Hashtbl reference" ~count:60
    (QCheck.make
       QCheck.Gen.(pair bool (list_size (int_range 0 6000) item)))
    truth_table_agrees

(* --- Allocation: the DC update path allocates nothing between sends --- *)

(* A send allocates (ledger records, the boxed estimate, the pending
   set), and so does building the registry; updates between sends must
   not.  Replaying a stream after itself isolates them: every replayed
   arrival is already in its site's sketch, so the replay changes no
   sketch and sends nothing, and the two runs differ only by [n]
   between-sends updates. *)
let test_dc_run_words_between_sends () =
  let n = 200_000 in
  let stream =
    Stream_gen.zipf ~seed:3 ~skew:1.0 ~sites:10 ~events:n ~universe:100_000 ()
  in
  let replayed = Stream.concat [ stream; stream ] in
  let query = Query.dc ~theta:0.03 ~alpha:0.07 Dc.LS in
  let words s =
    let w0 = Gc.minor_words () in
    let r = Sim.run query s in
    (Gc.minor_words () -. w0, r)
  in
  ignore (words stream);
  let once, r1 = words stream in
  let twice, r2 = words replayed in
  Alcotest.(check int) "the replay sends nothing" r1.Sim.sends r2.Sim.sends;
  let per_update = (twice -. once) /. Float.of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "dc:ls allocates %.4f words/update between sends (<= 0.5)"
       per_update)
    true (per_update <= 0.5)

let () =
  let rand = Random.State.make [| Prop.seed |] in
  Alcotest.run "simulation"
    [
      ( "dc",
        [
          Alcotest.test_case "report consistency" `Quick
            test_dc_report_consistency;
          Alcotest.test_case "deterministic" `Quick test_dc_deterministic;
          Alcotest.test_case "exact bytes closed form" `Quick
            test_exact_dc_bytes_matches_ec_run;
        ] );
      ( "ds",
        [
          Alcotest.test_case "report consistency" `Quick
            test_ds_report_consistency;
          Alcotest.test_case "exact bytes closed form" `Quick
            test_exact_ds_bytes_matches_eds_run;
        ] );
      ( "helpers",
        [
          Alcotest.test_case "true prefixes" `Quick test_true_distinct_prefixes;
          Alcotest.test_case "pair stream" `Quick test_pair_stream_of_requests;
          QCheck_alcotest.to_alcotest ~rand prop_truth_table;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "dc run words between sends" `Quick
            test_dc_run_words_between_sends;
        ] );
      ( "hh",
        [ Alcotest.test_case "report" `Quick test_hh_report ] );
      ( "ablation",
        [ Alcotest.test_case "other sketches" `Quick test_sketch_ablation_runs ] );
    ]
