module Stream = Wd_workload.Stream
module Http = Wd_workload.Http_trace
module Two_phase = Wd_workload.Two_phase
module Dc = Wd_protocol.Dc_tracker
module Ds = Wd_protocol.Ds_tracker
module Network = Wd_net.Network
module Rng = Wd_hashing.Rng
module Duplication = Wd_aggregate.Duplication
module Query = Wd_view.Query
open Report

type options = { scale : float; seed : int; epsilon : float; confidence : float }

let default_options = { scale = 1.0; seed = 42; epsilon = 0.1; confidence = 0.9 }

(* Unified-run projections: the protocol-specific extras live in [aux]. *)
let ds_level_sample (r : Simulation.run) =
  match r.Simulation.aux with
  | Simulation.Ds_aux { level; sample; _ } -> (level, sample)
  | _ -> invalid_arg "ds_level_sample: not a DS run"

let hh_extras (r : Simulation.run) =
  match r.Simulation.aux with
  | Simulation.Hh_aux { avg_norm_error; topk_recall; exact_bytes } ->
    (avg_norm_error, topk_recall, exact_bytes)
  | _ -> invalid_arg "hh_extras: not an HH run"

type table = {
  id : string;
  title : string;
  params : (string * string) list;
  header : string list;
  rows : Report.cell list list;
}

let print t =
  Report.print_section (Printf.sprintf "%s: %s" t.id t.title);
  Report.print_kv t.params;
  print_newline ();
  Report.print_table ~header:t.header t.rows;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Workloads *)

let http_config o = Http.scaled ~seed:o.seed o.scale

let http_stream o item_view site_view =
  let cfg = http_config o in
  Http.view cfg item_view site_view (Http.generate cfg)

let two_phase_stream o =
  let per_site = max 20 (int_of_float (250.0 *. o.scale)) in
  Two_phase.generate ~seed:o.seed ~sites:20 ~per_site ()

(* The sample-size sweeps need a universe comfortably above the largest
   T (3000), or the sampler degenerates to "keep everything" and the
   count-sharing algorithms drown in broadcast churn. *)
let two_phase_stream_ds o =
  let per_site = max 1_000 (int_of_float (1_000.0 *. o.scale)) in
  Two_phase.generate ~seed:o.seed ~sites:20 ~per_site ()

let pct f = Printf.sprintf "%.0f%%" (100.0 *. f)

let common_params o workload =
  [
    ("workload", workload);
    ("epsilon", Printf.sprintf "%g" o.epsilon);
    ("confidence", pct o.confidence);
    ("scale", Printf.sprintf "%g" o.scale);
    ("seed", string_of_int o.seed);
  ]

(* Per-algorithm experimentally optimal lag fractions (Section 7.2: best
   theta is ~0.3 eps for most algorithms, ~0.15 eps for LS). *)
let optimal_theta_frac = function
  | Dc.NS | Dc.SC | Dc.SS -> 0.3
  | Dc.LS -> 0.15
  | Dc.EC -> 0.3

let dc_algo_cell a = S (Dc.algorithm_to_string a)

(* ------------------------------------------------------------------ *)
(* Figure 5: distinct count tracking *)

let theta_fracs = [ 0.05; 0.1; 0.15; 0.2; 0.3; 0.5; 0.7; 0.85 ]

(* Cost-vs-theta sweep shared by 5(a) and 5(e). *)
let dc_theta_sweep o stream =
  let exact = Simulation.exact_dc_bytes stream in
  let row frac =
    let theta = frac *. o.epsilon in
    let alpha = o.epsilon -. theta in
    let ratios =
      List.map
        (fun algorithm ->
          let r =
            Simulation.run ~seed:o.seed ~error_samples:1
              (Query.dc ~confidence:o.confidence ~theta ~alpha algorithm)
              stream
          in
          R (Float.of_int r.Simulation.total_bytes /. Float.of_int exact))
        Dc.approximate_algorithms
    in
    F frac :: ratios
  in
  ( [ "theta/eps"; "NS"; "SC"; "SS"; "LS" ],
    List.map row theta_fracs,
    exact )

let fig5a ?(options = default_options) () =
  let o = options in
  let stream = http_stream o Http.Client_object_pair Http.Per_region in
  let header, rows, exact = dc_theta_sweep o stream in
  {
    id = "fig5a";
    title = "DC: relative communication cost vs lag theta (HTTP pairs, 4 sites)";
    params =
      common_params o "HTTP (clientID, objectID) pairs, 4 region sites"
      @ [
          ("updates", string_of_int (Stream.length stream));
          ("distinct", string_of_int (Stream.distinct_count stream));
          ("exact (EC) bytes", string_of_int exact);
        ];
    header;
    rows;
  }

(* Cost-ratio-vs-updates series shared by 5(b), 5(c), 5(f). *)
let dc_progress_series o ?(algorithms = Dc.approximate_algorithms) stream =
  let checkpoints = 10 in
  let ec =
    Simulation.run ~seed:o.seed ~checkpoints ~error_samples:1
      (Query.dc ~theta:0.1 ~alpha:0.1 Dc.EC)
      stream
  in
  let runs =
    List.map
      (fun algorithm ->
        let frac = optimal_theta_frac algorithm in
        let theta = frac *. o.epsilon in
        let alpha = o.epsilon -. theta in
        ( algorithm,
          Simulation.run ~seed:o.seed ~checkpoints ~error_samples:1
            (Query.dc ~confidence:o.confidence ~theta ~alpha algorithm)
            stream ))
      algorithms
  in
  let rows =
    List.init checkpoints (fun i ->
        let updates, ec_bytes = ec.Simulation.bytes_series.(i) in
        I updates
        :: List.map
             (fun (_, r) ->
               let _, b = r.Simulation.bytes_series.(i) in
               R (Float.of_int b /. Float.of_int (max 1 ec_bytes)))
             runs)
  in
  let header =
    "updates" :: List.map (fun (a, _) -> Dc.algorithm_to_string a) runs
  in
  (header, rows)

let fig5b ?(options = default_options) () =
  let o = options in
  let stream = http_stream o Http.Client_object_pair Http.Per_region in
  let header, rows = dc_progress_series o stream in
  {
    id = "fig5b";
    title = "DC: cost ratio vs updates (HTTP pairs, 4 sites, per-algo optimal theta)";
    params = common_params o "HTTP pairs, 4 region sites";
    header;
    rows;
  }

let fig5c ?(options = default_options) () =
  let o = options in
  let stream = http_stream o Http.Client_object_pair Http.Per_server in
  let header, rows = dc_progress_series o stream in
  {
    id = "fig5c";
    title =
      "DC: cost ratio vs updates (HTTP pairs, 29 sites; paper omits SS as too costly)";
    params = common_params o "HTTP pairs, 29 server sites";
    header;
    rows;
  }

let fig5d ?(options = default_options) () =
  let o = options in
  let stream = http_stream o Http.Client_object_pair Http.Per_region in
  (* One common split for the accuracy comparison (the paper's 5(d) does
     not vary theta per algorithm). *)
  let theta = 0.3 *. o.epsilon in
  let alpha = o.epsilon -. theta in
  let runs =
    List.map
      (fun algorithm ->
        ( algorithm,
          Simulation.run ~seed:o.seed ~error_samples:400
            (Query.dc ~confidence:o.confidence ~theta ~alpha algorithm)
            stream ))
      Dc.approximate_algorithms
  in
  let sorted_errors =
    List.map
      (fun (_, r) ->
        let errs = Array.map snd r.Simulation.error_series in
        Array.sort Float.compare errs;
        errs)
      runs
  in
  let percentiles = [ 0.10; 0.25; 0.50; 0.75; 0.90; 0.95; 0.99 ] in
  let pct_row p =
    S (Printf.sprintf "p%02.0f" (100.0 *. p))
    :: List.map
         (fun errs ->
           let n = Array.length errs in
           F errs.(min (n - 1) (int_of_float (p *. Float.of_int n))))
         sorted_errors
  in
  let within_row =
    S "Pr[err <= eps]"
    :: List.map
         (fun errs ->
           let n = Array.length errs in
           let ok =
             Array.fold_left
               (fun acc e -> if e <= o.epsilon then acc + 1 else acc)
               0 errs
           in
           F (Float.of_int ok /. Float.of_int n))
         sorted_errors
  in
  {
    id = "fig5d";
    title = "DC: distribution of relative error at the coordinator";
    params =
      common_params o "HTTP pairs, 4 region sites"
      @ [ ("target", Printf.sprintf "err <= %g at least %s of the time"
             o.epsilon (pct o.confidence)) ];
    header = "percentile" :: List.map (fun (a, _) -> Dc.algorithm_to_string a) runs;
    rows = List.map pct_row percentiles @ [ within_row ];
  }

let fig5e ?(options = default_options) () =
  let o = options in
  let stream = two_phase_stream o in
  let header, rows, exact = dc_theta_sweep o stream in
  {
    id = "fig5e";
    title = "DC: relative communication cost vs lag theta (synthetic two-phase, 20 sites)";
    params =
      common_params o "two-phase synthetic, 20 sites"
      @ [
          ("updates", string_of_int (Stream.length stream));
          ("distinct", string_of_int (Stream.distinct_count stream));
          ("exact (EC) bytes", string_of_int exact);
        ];
    header;
    rows;
  }

let fig5f ?(options = default_options) () =
  let o = options in
  let stream = two_phase_stream o in
  let header, rows = dc_progress_series o stream in
  {
    id = "fig5f";
    title = "DC: cost ratio vs updates (synthetic two-phase, 20 sites)";
    params = common_params o "two-phase synthetic, 20 sites";
    header;
    rows;
  }

(* ------------------------------------------------------------------ *)
(* Figure 6: distinct sample tracking *)

let sample_sizes = [ 10; 30; 100; 300; 1_000; 3_000 ]

let ds_threshold_sweep o ~theta stream =
  let exact = Simulation.exact_ds_bytes stream in
  let row threshold =
    let ratios =
      List.map
        (fun algorithm ->
          let r =
            Simulation.run ~seed:o.seed
              (Query.ds ~theta ~threshold algorithm)
              stream
          in
          R (Float.of_int r.Simulation.total_bytes /. Float.of_int exact))
        Ds.approximate_algorithms
    in
    I threshold :: ratios
  in
  ([ "T"; "LCO"; "GCS"; "LCS" ], List.map row sample_sizes, exact)

let fig6a ?(options = default_options) () =
  let o = options in
  let theta = 0.25 in
  let stream = http_stream o Http.Client_object_pair Http.Per_region in
  let header, rows, exact = ds_threshold_sweep o ~theta stream in
  {
    id = "fig6a";
    title = "DS: cost ratio vs sample size T (HTTP pairs)";
    params =
      common_params o "HTTP pairs, 4 region sites"
      @ [
          ("theta", Printf.sprintf "%g" theta);
          ("exact (EDS) bytes", string_of_int exact);
        ];
    header;
    rows;
  }

let fig6b ?(options = default_options) () =
  let o = options in
  let theta = 0.25 in
  let stream = two_phase_stream_ds o in
  let header, rows, exact = ds_threshold_sweep o ~theta stream in
  {
    id = "fig6b";
    title = "DS: cost ratio vs sample size T (synthetic two-phase)";
    params =
      common_params o "two-phase synthetic, 20 sites"
      @ [
          ("theta", Printf.sprintf "%g" theta);
          ("exact (EDS) bytes", string_of_int exact);
        ];
    header;
    rows;
  }

let fig6c ?(options = default_options) () =
  let o = options in
  let threshold = 500 in
  let stream = http_stream o Http.Client_id Http.Per_region in
  let exact = Simulation.exact_ds_bytes stream in
  let thetas = [ 0.05; 0.1; 0.2; 0.4; 0.6; 0.8 ] in
  let row theta =
    let ratios =
      List.map
        (fun algorithm ->
          let r =
            Simulation.run ~seed:o.seed
              (Query.ds ~theta ~threshold algorithm)
              stream
          in
          R (Float.of_int r.Simulation.total_bytes /. Float.of_int exact))
        Ds.approximate_algorithms
    in
    F theta :: ratios
  in
  {
    id = "fig6c";
    title = "DS: cost ratio vs theta (high-duplication clientID view)";
    params =
      common_params o "HTTP clientIDs only, 4 region sites"
      @ [
          ("T", string_of_int threshold);
          ("duplication factor",
           Printf.sprintf "%.1f" (Stream.duplication_factor stream));
          ("exact (EDS) bytes", string_of_int exact);
        ];
    header = [ "theta"; "LCO"; "GCS"; "LCS" ];
    rows = List.map row thetas;
  }

(* ------------------------------------------------------------------ *)
(* Figure 7: duplicate-resilient aggregates *)

let fig7a ?(options = default_options) () =
  let o = options in
  let theta = 0.25 in
  let stream = http_stream o Http.Client_object_pair Http.Per_region in
  let exact_bytes = Simulation.exact_ds_bytes stream in
  let exact =
    let m = Stream.multiplicities stream in
    Hashtbl.fold (fun _ c acc -> if c = 1 then acc + 1 else acc) m 0
  in
  (* Smooth the level-quantization noise of a single sampler draw by
     averaging across independent hash seeds, as one would by repeating
     the experiment. *)
  let seeds = List.init 5 (fun i -> o.seed + (1_000 * i)) in
  let row threshold =
    let cells =
      List.concat_map
        (fun algorithm ->
          let runs =
            List.map
              (fun seed ->
                Simulation.run ~seed (Query.ds ~theta ~threshold algorithm)
                  stream)
              seeds
          in
          let avg_err =
            List.fold_left
              (fun acc r ->
                let level, sample = ds_level_sample r in
                let est = Duplication.unique_count ~level sample in
                acc
                +. (Float.abs (est -. Float.of_int exact)
                   /. Float.of_int exact))
              0.0 runs
            /. Float.of_int (List.length runs)
          in
          let avg_cost =
            List.fold_left
              (fun acc r -> acc + r.Simulation.total_bytes)
              0 runs
            / List.length runs
          in
          [ F avg_err; R (Float.of_int avg_cost /. Float.of_int exact_bytes) ])
        Ds.approximate_algorithms
    in
    I threshold :: cells
  in
  {
    id = "fig7a";
    title = "Unique-event (count = 1) estimate: relative error and cost vs T";
    params =
      common_params o "HTTP pairs, 4 region sites"
      @ [
          ("theta", Printf.sprintf "%g" theta);
          ("true unique events", string_of_int exact);
        ];
    header =
      [ "T"; "LCO err"; "LCO cost"; "GCS err"; "GCS cost"; "LCS err";
        "LCS cost" ];
    rows = List.map row sample_sizes;
  }

let fig7b ?(options = default_options) () =
  let o = options in
  let theta = 0.25 in
  let stream = http_stream o Http.Client_id Http.Per_region in
  let exact_median =
    let counts =
      Hashtbl.fold (fun _ c acc -> c :: acc) (Stream.multiplicities stream) []
      |> List.sort compare
    in
    List.nth counts (List.length counts / 2)
  in
  let seeds = List.init 5 (fun i -> o.seed + (1_000 * i)) in
  let row threshold =
    let cells =
      List.map
        (fun algorithm ->
          let errs =
            List.filter_map
              (fun seed ->
                let r =
                  Simulation.run ~seed (Query.ds ~theta ~threshold algorithm)
                    stream
                in
                Option.map
                  (fun est ->
                    Float.abs (Float.of_int (est - exact_median))
                    /. Float.of_int exact_median)
                  (Duplication.median_count (snd (ds_level_sample r))))
              seeds
          in
          match errs with
          | [] -> S "n/a"
          | _ ->
            F
              (List.fold_left ( +. ) 0.0 errs
              /. Float.of_int (List.length errs)))
        Ds.approximate_algorithms
    in
    I threshold :: cells
  in
  {
    id = "fig7b";
    title = "Median duplication estimate: relative error vs T";
    params =
      common_params o "HTTP clientIDs only, 4 region sites"
      @ [
          ("theta", Printf.sprintf "%g" theta);
          ("true median duplication", string_of_int exact_median);
        ];
    header = [ "T"; "LCO err"; "GCS err"; "LCS err" ];
    rows = List.map row sample_sizes;
  }

let fig7c ?(options = default_options) () =
  let o = options in
  let theta = 0.03 in
  let cfg = http_config o in
  let pairs =
    Simulation.pair_stream_of_requests cfg Http.Per_region (Http.generate cfg)
  in
  (* "a sketch containing about 1500 FM sketches, each of which consisted
     of 10 repetitions" *)
  let config = { Wd_aggregate.Fm_array.rows = 3; cols = 500; bitmaps = 10 } in
  let rows =
    List.map
      (fun algorithm ->
        let r =
          Simulation.run ~seed:o.seed
            (Query.hh ~config ~theta algorithm)
            (Simulation.stream_of_pairs pairs)
        in
        let avg_norm_error, topk_recall, exact_bytes = hh_extras r in
        [
          dc_algo_cell algorithm;
          I r.Simulation.total_bytes;
          R (Float.of_int r.Simulation.total_bytes /. Float.of_int exact_bytes);
          F avg_norm_error;
          F topk_recall;
        ])
      Dc.approximate_algorithms
  in
  {
    id = "fig7c";
    title =
      "Distinct heavy hitters over (objectID, clientID): cost and accuracy by algorithm";
    params =
      common_params o "HTTP (objectID, clientID) pairs, 4 region sites"
      @ [
          ("FM array",
           Printf.sprintf "%d x %d cells, %d bitmaps each (%d sketches)"
             config.rows config.cols config.bitmaps
             (config.rows * config.cols));
          ("theta", Printf.sprintf "%g" theta);
          ("updates", string_of_int (Simulation.pair_stream_length pairs));
        ];
    header = [ "algorithm"; "bytes"; "ratio vs exact"; "norm err (top-20)";
               "recall@20" ];
    rows;
  }

(* ------------------------------------------------------------------ *)
(* Ablations *)

let ablation_radio ?(options = default_options) () =
  let o = options in
  let stream = http_stream o Http.Client_object_pair Http.Per_region in
  let exact = Simulation.exact_dc_bytes stream in
  let frac = 0.3 in
  let theta = frac *. o.epsilon and alpha = (1.0 -. frac) *. o.epsilon in
  let rows =
    List.map
      (fun algorithm ->
        let run cost_model =
          let r =
            Simulation.run ~cost_model ~seed:o.seed ~error_samples:1
              (Query.dc ~theta ~alpha algorithm)
              stream
          in
          Float.of_int r.Simulation.total_bytes /. Float.of_int exact
        in
        [
          dc_algo_cell algorithm;
          R (run Network.Unicast);
          R (run Network.Radio_broadcast);
        ])
      Dc.approximate_algorithms
  in
  {
    id = "ablation_radio";
    title = "Cost model ablation: unicast vs radio broadcast (Section 7.2 remark)";
    params = common_params o "HTTP pairs, 4 region sites"
             @ [ ("theta/eps", Printf.sprintf "%g" frac) ];
    header = [ "algorithm"; "unicast ratio"; "radio ratio" ];
    rows;
  }

let ablation_radio_ds ?(options = default_options) () =
  let o = options in
  (* Count-sharing costs are broadcast-shaped, so the radio model should
     rehabilitate GCS the way it rehabilitates SS for sketches. *)
  let stream = http_stream o Http.Client_id Http.Per_region in
  let exact = Simulation.exact_ds_bytes stream in
  let theta = 0.25 and threshold = 500 in
  let rows =
    List.map
      (fun algorithm ->
        let run cost_model =
          let r =
            Simulation.run ~cost_model ~seed:o.seed
              (Query.ds ~theta ~threshold algorithm)
              stream
          in
          Float.of_int r.Simulation.total_bytes /. Float.of_int exact
        in
        [
          S (Ds.algorithm_to_string algorithm);
          R (run Network.Unicast);
          R (run Network.Radio_broadcast);
        ])
      Ds.approximate_algorithms
  in
  {
    id = "ablation_radio_ds";
    title = "Cost model ablation for distinct-sample tracking";
    params =
      common_params o "HTTP clientIDs only, 4 region sites"
      @ [ ("theta", Printf.sprintf "%g" theta); ("T", string_of_int threshold) ];
    header = [ "algorithm"; "unicast ratio"; "radio ratio" ];
    rows;
  }

let ext_scaling ?(options = default_options) () =
  let o = options in
  (* The savings regime grows with the workload: protocol state is
     scale-independent while the exact baseline is linear in the number
     of distinct items.  This is the lens through which the absolute
     ratios of the other experiments should be read (DESIGN.md). *)
  let theta = 0.3 *. o.epsilon and alpha = 0.7 *. o.epsilon in
  let scales = [ 0.1; 0.3; 1.0; 3.0 ] in
  let rows =
    List.map
      (fun s ->
        let stream =
          http_stream { o with scale = o.scale *. s } Http.Client_object_pair
            Http.Per_region
        in
        let exact = Simulation.exact_dc_bytes stream in
        let ratio algorithm =
          let r =
            Simulation.run ~seed:o.seed ~error_samples:1
              (Query.dc ~theta ~alpha algorithm)
              stream
          in
          Float.of_int r.Simulation.total_bytes /. Float.of_int exact
        in
        [
          F s;
          I (Stream.length stream);
          I (Stream.distinct_count stream);
          R (ratio Dc.NS);
          R (ratio Dc.LS);
        ])
      scales
  in
  {
    id = "ext_scaling";
    title = "Savings vs workload scale (protocol state is scale-independent)";
    params = common_params o "HTTP pairs, 4 region sites";
    header = [ "scale"; "updates"; "distinct"; "NS ratio"; "LS ratio" ];
    rows;
  }

let ablation_sketch_type ?(options = default_options) () =
  let o = options in
  let stream = http_stream o Http.Client_object_pair Http.Per_region in
  let exact = Simulation.exact_dc_bytes stream in
  let frac = 0.3 in
  let theta = frac *. o.epsilon and alpha = (1.0 -. frac) *. o.epsilon in
  let measure sketch =
    List.map
      (fun algorithm ->
        let r =
          Simulation.run ~seed:o.seed ~error_samples:1
            (Query.dc ~sketch ~theta ~alpha algorithm)
            stream
        in
        let err =
          Float.abs
            (r.Simulation.final_estimate
            -. Float.of_int r.Simulation.final_truth)
          /. Float.of_int r.Simulation.final_truth
        in
        [
          S (Query.sketch_to_string sketch);
          dc_algo_cell algorithm;
          R (Float.of_int r.Simulation.total_bytes /. Float.of_int exact);
          F err;
        ])
      [ Dc.NS; Dc.LS ]
  in
  let rows = measure Query.Fm @ measure Query.Bjkst @ measure Query.Hll in
  {
    id = "ablation_sketch_type";
    title = "Sketch-type ablation: any mergeable distinct sketch plugs in (Section 4.2)";
    params = common_params o "HTTP pairs, 4 region sites";
    header = [ "sketch"; "algorithm"; "cost ratio"; "final err" ];
    rows;
  }

let ablation_fm_variant ?(options = default_options) () =
  let o = options in
  let stream = http_stream o Http.Client_object_pair Http.Per_region in
  let exact = Simulation.exact_dc_bytes stream in
  let theta = 0.3 *. o.epsilon in
  let bitmaps = 64 in
  let rows =
    List.concat_map
      (fun (name, variant) ->
        List.map
          (fun algorithm ->
            let family =
              Wd_sketch.Fm.family_custom ~rng:(Rng.create o.seed) ~variant
                ~bitmaps
            in
            (* No harness sampling is needed for a final-state table:
               feed the tracker the whole stream in one batch. *)
            let t =
              Dc.Fm.create ~algorithm ~theta ~sites:(Stream.num_sites stream)
                ~family ()
            in
            Dc.Fm.observe_batch t ~sites:stream.Stream.sites
              ~items:stream.Stream.items ~pos:0 ~len:(Stream.length stream);
            let truth = Float.of_int (Stream.distinct_count stream) in
            [
              S name;
              dc_algo_cell algorithm;
              R
                (Float.of_int (Network.total_bytes (Dc.Fm.network t))
                /. Float.of_int exact);
              F (Float.abs (Dc.Fm.estimate t -. truth) /. truth);
            ])
          [ Dc.NS; Dc.LS ])
      [ ("averaged", Wd_sketch.Fm.Averaged);
        ("stochastic", Wd_sketch.Fm.Stochastic) ]
  in
  {
    id = "ablation_fm_variant";
    title = "FM update-discipline ablation: paper-style averaging vs PCSA";
    params =
      common_params o "HTTP pairs, 4 region sites"
      @ [ ("bitmaps", string_of_int bitmaps) ];
    header = [ "variant"; "algorithm"; "cost ratio"; "final err" ];
    rows;
  }

let ablation_batching ?(options = default_options) () =
  let o = options in
  let stream = http_stream o Http.Client_object_pair Http.Per_region in
  let exact = Simulation.exact_dc_bytes stream in
  let frac = 0.3 in
  let theta = frac *. o.epsilon and alpha = (1.0 -. frac) *. o.epsilon in
  let rows =
    List.map
      (fun algorithm ->
        let run item_batching =
          let r =
            Simulation.run ~item_batching ~seed:o.seed ~error_samples:1
              (Query.dc ~theta ~alpha algorithm)
              stream
          in
          Float.of_int r.Simulation.total_bytes /. Float.of_int exact
        in
        [ dc_algo_cell algorithm; R (run true); R (run false) ])
      Dc.approximate_algorithms
  in
  {
    id = "ablation_batching";
    title = "Section 4.2 optimization: ship exact new items while cheaper than a sketch";
    params = common_params o "HTTP pairs, 4 region sites";
    header = [ "algorithm"; "with batching"; "without" ];
    rows;
  }

let ablation_quantiles ?(options = default_options) () =
  let o = options in
  let module Dq = Wd_aggregate.Distinct_quantiles in
  let sites = 4 in
  let events = max 1_000 (int_of_float (40_000.0 *. o.scale)) in
  let universe = 8_192 in
  let stream =
    Wd_workload.Stream_gen.zipf ~seed:o.seed ~skew:0.8 ~sites ~events
      ~universe ()
  in
  let exact =
    Dq.exact_quantile (Stream.multiplicities stream) 0.5
    |> Option.value ~default:0
  in
  let fam =
    Dq.family ~rng:(Rng.create o.seed)
      { Dq.universe; rows = 3; cols = 128; bitmaps = 10 }
  in
  let dyadic_rows =
    List.map
      (fun algorithm ->
        let t =
          Dq.Tracked.create ~item_batching:true ~algorithm
            ~theta:(0.3 *. o.epsilon) ~sites ~family:fam ()
        in
        Stream.iter (fun ~site ~item -> Dq.Tracked.observe t ~site item) stream;
        let median = Dq.Tracked.median t in
        [
          S ("dyadic-fm/" ^ Dc.algorithm_to_string algorithm);
          I (Network.total_bytes (Dq.Tracked.network t));
          I median;
          I exact;
          F
            (Float.abs (Float.of_int (median - exact))
            /. Float.of_int (max 1 exact));
        ])
      [ Dc.NS; Dc.SC; Dc.LS ]
  in
  (* The sampling route to the same query: track a distinct sample and
     take order statistics of the sampled item values. *)
  let sample_rows =
    List.map
      (fun algorithm ->
        let r =
          Simulation.run ~seed:o.seed
            (Query.ds ~theta:0.25 ~threshold:1_000 algorithm)
            stream
        in
        let median =
          Option.value
            (Duplication.value_median (snd (ds_level_sample r)))
            ~default:0
        in
        [
          S ("sample/" ^ Ds.algorithm_to_string algorithm);
          I r.Simulation.total_bytes;
          I median;
          I exact;
          F
            (Float.abs (Float.of_int (median - exact))
            /. Float.of_int (max 1 exact));
        ])
      [ Ds.LCO ]
  in
  {
    id = "ablation_quantiles";
    title =
      "Duplicate-resilient quantiles (footnote 3): dyadic-FM tracking vs distinct-sample order statistics";
    params =
      common_params o
        (Printf.sprintf "zipf(0.8) stream, %d sites, universe %d" sites universe)
      @ [ ("events", string_of_int events) ];
    header = [ "method"; "bytes"; "median est"; "median true"; "rel err" ];
    rows = dyadic_rows @ sample_rows;
  }

let ablation_resilience ?(options = default_options) () =
  let o = options in
  (* The paper's motivating contrast: find "the objects requested by the
     largest number of distinct clients, without being influenced by
     clients requesting the same object multiple times".  Workload: 20
     organically popular objects (requested once each by many distinct
     clients, more clients for lower object ids) plus 5 "botted" objects
     hammered by a handful of clients; frequency-based heavy hitters
     (Space-Saving over objectIDs) crown the bots, the distinct
     heavy-hitter structure does not. *)
  let rng = Rng.create o.seed in
  let scale_n n = max 10 (int_of_float (Float.of_int n *. o.scale)) in
  let pairs = ref [] in
  for obj = 0 to 19 do
    let clients = scale_n (4_000 - (150 * obj)) in
    for w = 0 to clients - 1 do
      pairs := (obj, (obj * 1_000_000) + w) :: !pairs
    done
  done;
  for bot = 0 to 4 do
    let obj = 100 + bot in
    for w = 0 to 2 do
      for _ = 1 to scale_n 20_000 do
        pairs := (obj, w) :: !pairs
      done
    done
  done;
  let arr = Array.of_list !pairs in
  Rng.shuffle_in_place rng arr;
  let exact_top_by_distinct =
    (* Objects 0..9 have the most distinct clients by construction. *)
    List.init 10 Fun.id
  in
  let ss = Wd_frequency.Space_saving.create ~capacity:256 in
  let hh =
    Wd_aggregate.Distinct_hh.Centralized.create
      ~family:
        (Wd_aggregate.Fm_array.family ~rng
           { Wd_aggregate.Fm_array.rows = 3; cols = 256; bitmaps = 12 })
  in
  Array.iter
    (fun (v, w) ->
      Wd_frequency.Space_saving.add ss v;
      Wd_aggregate.Distinct_hh.Centralized.add hh ~v ~w)
    arr;
  let recall name ranked =
    let top10 = List.filteri (fun i _ -> i < 10) (List.map fst ranked) in
    let hits =
      List.length (List.filter (fun v -> List.mem v top10) exact_top_by_distinct)
    in
    let bots = List.length (List.filter (fun v -> v >= 100) top10) in
    [ S name; F (Float.of_int hits /. 10.0); I bots ]
  in
  {
    id = "ablation_resilience";
    title =
      "Motivation: frequency heavy hitters vs distinct heavy hitters under duplication";
    params =
      common_params o "20 popular objects + 5 botted objects"
      @ [ ("events", string_of_int (Array.length arr)) ];
    header = [ "method"; "recall@10 (distinct truth)"; "bots in top-10" ];
    rows =
      [
        recall "space-saving (frequency)"
          (List.map
             (fun (v, c) -> (v, Float.of_int c))
             (Wd_frequency.Space_saving.top ss ~k:10));
        recall "distinct heavy hitters"
          (Wd_aggregate.Distinct_hh.Centralized.top hh ~k:10);
      ];
  }

let ext_windows ?(options = default_options) () =
  let o = options in
  let module W = Wd_protocol.Window_tracker in
  let module Wfm = Wd_sketch.Fm_window in
  let sites = 4 in
  let events = max 2_000 (int_of_float (120_000.0 *. o.scale)) in
  let window = events / 6 in
  (* A drifting universe: each phase introduces a fresh item range, so
     the windowed distinct count genuinely rises and falls. *)
  let rng = Rng.create o.seed in
  let phase_len = events / 12 in
  let per_phase = 2_000 in
  let sites_a = Array.make events 0 and items_a = Array.make events 0 in
  for j = 0 to events - 1 do
    sites_a.(j) <- Rng.int rng sites;
    items_a.(j) <- ((j / phase_len) * per_phase) + Rng.int rng per_phase
  done;
  let theta = 0.3 *. o.epsilon and alpha = 0.7 *. o.epsilon in
  let family = Wfm.family ~rng ~accuracy:alpha ~confidence:o.confidence in
  let samples = List.init 12 (fun i -> ((i + 1) * events / 12) - 1) in
  let rows =
    List.map
      (fun algorithm ->
        let tr = W.create ~algorithm ~theta ~window ~sites ~family () in
        let truth_tracker = Wd_workload.Window_truth.create () in
        let errs = ref [] in
        let next = ref samples in
        for j = 0 to events - 1 do
          W.observe tr ~site:sites_a.(j) ~time:j items_a.(j);
          Wd_workload.Window_truth.add truth_tracker items_a.(j);
          (match !next with
          | s :: rest when s = j ->
            next := rest;
            let truth =
              Wd_workload.Window_truth.distinct_last truth_tracker window
            in
            if truth > 0 then
              errs :=
                (Float.abs (W.estimate tr ~now:j -. Float.of_int truth)
                /. Float.of_int truth)
                :: !errs
          | _ -> ())
        done;
        let mean_err =
          List.fold_left ( +. ) 0.0 !errs
          /. Float.of_int (max 1 (List.length !errs))
        in
        [
          S (W.algorithm_to_string algorithm);
          I (Network.total_bytes (W.network tr));
          R
            (Float.of_int (Network.total_bytes (W.network tr))
            /. Float.of_int (W.exact_bytes ~updates:events));
          F mean_err;
        ])
      W.all_algorithms
  in
  {
    id = "ext_windows";
    title = "Sliding-window distinct tracking (Section 8 extension)";
    params =
      common_params o "drifting-universe synthetic, 4 sites"
      @ [
          ("events", string_of_int events);
          ("window", string_of_int window);
        ];
    header = [ "algorithm"; "bytes"; "ratio vs forward-all"; "mean rel err" ];
    rows;
  }

let ext_predictive ?(options = default_options) () =
  let o = options in
  let module P = Wd_protocol.Predictive in
  let sites = 4 in
  let events = max 2_000 (int_of_float (200_000.0 *. o.scale)) in
  (* Steady growth with duplication: each event is a fresh item with
     probability 0.4, otherwise a repeat of an earlier item — the regime
     prediction models are built for. *)
  let rng = Rng.create o.seed in
  let sites_a = Array.make events 0 and items_a = Array.make events 0 in
  let fresh = ref 0 in
  for j = 0 to events - 1 do
    sites_a.(j) <- Rng.int rng sites;
    if !fresh = 0 || Rng.float rng 1.0 < 0.4 then begin
      items_a.(j) <- !fresh;
      incr fresh
    end
    else items_a.(j) <- Rng.int rng !fresh
  done;
  let stream = Stream.make ~sites:sites_a ~items:items_a in
  let theta = 0.3 *. o.epsilon and alpha = 0.7 *. o.epsilon in
  let family =
    Wd_sketch.Fm.family ~rng:(Rng.create (o.seed + 1)) ~accuracy:alpha
      ~confidence:o.confidence
  in
  let truth = Stream.distinct_count stream in
  let exact = Simulation.exact_dc_bytes stream in
  let predictive_row model =
    let tr = P.create ~model ~theta ~sites ~family () in
    Stream.iter (fun ~site ~item -> P.observe tr ~site item) stream;
    let err =
      Float.abs (P.estimate tr -. Float.of_int truth) /. Float.of_int truth
    in
    [
      S ("predictive/" ^ P.model_to_string model);
      I (Network.total_bytes (P.network tr));
      R (Float.of_int (Network.total_bytes (P.network tr)) /. Float.of_int exact);
      F err;
      I (P.sends tr);
    ]
  in
  let dc_row algorithm =
    let r =
      Simulation.run ~seed:o.seed ~error_samples:1
        (Query.dc ~theta ~alpha algorithm)
        stream
    in
    let err =
      Float.abs (r.Simulation.final_estimate -. Float.of_int truth)
      /. Float.of_int truth
    in
    [
      S (Dc.algorithm_to_string algorithm);
      I r.Simulation.total_bytes;
      R (Float.of_int r.Simulation.total_bytes /. Float.of_int exact);
      F err;
      I r.Simulation.sends;
    ]
  in
  {
    id = "ext_predictive";
    title = "Prediction-model tracking (Section 8 extension, style of [8,9])";
    params =
      common_params o "steady-growth synthetic (40% fresh), 4 sites"
      @ [ ("events", string_of_int events);
          ("distinct", string_of_int truth) ];
    header = [ "tracker"; "bytes"; "ratio vs exact"; "final err"; "syncs" ];
    rows =
      [ predictive_row P.Static; predictive_row P.Linear_growth;
        dc_row Dc.NS; dc_row Dc.LS ];
  }

let ext_topology ?(options = default_options) () =
  let o = options in
  (* Hierarchical deployment: the same stream routed through deeper and
     deeper aggregation trees.  The site links pay exactly the flat-star
     traffic regardless of the tree (the protocol is unchanged); what the
     table exposes is the backbone surcharge per added layer — the cost
     of making the CDN hierarchy explicit in the ledger. *)
  let sites = 16 in
  let events = max 2_000 (Float.to_int (100_000.0 *. o.scale)) in
  let stream =
    Wd_workload.Stream_gen.zipf ~seed:o.seed ~sites ~events
      ~universe:(events / 4) ()
  in
  let theta = 0.3 *. o.epsilon and alpha = 0.7 *. o.epsilon in
  let specs =
    [ "flat"; "tree:regions=4"; "tree:regions=8,fanout=2" ]
  in
  let rows =
    List.map
      (fun spec ->
        let topo =
          match Wd_net.Topology.of_spec ~sites spec with
          | Ok t -> t
          | Error e -> invalid_arg e
        in
        let r =
          Simulation.run ~seed:o.seed ~error_samples:1 ~topology:topo
            (Query.dc ~theta ~alpha Dc.LS)
            stream
        in
        let err =
          Float.abs
            (r.Simulation.final_estimate
            -. Float.of_int r.Simulation.final_truth)
          /. Float.of_int r.Simulation.final_truth
        in
        [
          S spec;
          I (Wd_net.Topology.depth topo);
          I r.Simulation.total_bytes;
          I r.Simulation.backbone_bytes;
          I (r.Simulation.total_bytes + r.Simulation.backbone_bytes);
          F err;
        ])
      specs
  in
  {
    id = "ext_topology";
    title =
      "Extension: tree topologies — site links are depth-invariant, the \
       backbone pays per hop";
    params = common_params o "Zipf items, 16 sites, LS";
    header =
      [ "topology"; "depth"; "site bytes"; "backbone"; "grand total"; "err" ];
    rows;
  }

(* ------------------------------------------------------------------ *)
(* Suites *)

let registry : (string * (options -> table)) list =
  [
    ("fig5a", fun o -> fig5a ~options:o ());
    ("fig5b", fun o -> fig5b ~options:o ());
    ("fig5c", fun o -> fig5c ~options:o ());
    ("fig5d", fun o -> fig5d ~options:o ());
    ("fig5e", fun o -> fig5e ~options:o ());
    ("fig5f", fun o -> fig5f ~options:o ());
    ("fig6a", fun o -> fig6a ~options:o ());
    ("fig6b", fun o -> fig6b ~options:o ());
    ("fig6c", fun o -> fig6c ~options:o ());
    ("fig7a", fun o -> fig7a ~options:o ());
    ("fig7b", fun o -> fig7b ~options:o ());
    ("fig7c", fun o -> fig7c ~options:o ());
    ("ablation_radio", fun o -> ablation_radio ~options:o ());
    ("ablation_radio_ds", fun o -> ablation_radio_ds ~options:o ());
    ("ablation_sketch_type", fun o -> ablation_sketch_type ~options:o ());
    ("ablation_fm_variant", fun o -> ablation_fm_variant ~options:o ());
    ("ablation_batching", fun o -> ablation_batching ~options:o ());
    ("ablation_quantiles", fun o -> ablation_quantiles ~options:o ());
    ("ablation_resilience", fun o -> ablation_resilience ~options:o ());
    ("ext_windows", fun o -> ext_windows ~options:o ());
    ("ext_predictive", fun o -> ext_predictive ~options:o ());
    ("ext_scaling", fun o -> ext_scaling ~options:o ());
    ("ext_topology", fun o -> ext_topology ~options:o ());
  ]

let ids = List.map fst registry

let by_id id = List.assoc_opt id registry

let all ?(options = default_options) () =
  List.map (fun (_, f) -> f options) registry
