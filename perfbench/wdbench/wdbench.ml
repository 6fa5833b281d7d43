(* The repository benchmark: four seeded monitoring workloads driven
   through the public API.

   One invocation runs one workload:

     wdbench.exe --workload NAME --seed N --seconds S --trace 0|1

   The seed only shapes the generated stream; every run hashes with the
   same protocol seed, so a stream is the only input that varies.

   With [--trace 0] the run times [Simulation.run] end to end (tracing
   off) and reports the end-to-end metrics.  With [--trace 1] it instead
   times calls into each layer's public functions from this file —
   hashing, sketch, protocol tracker, registry fan-out, driver, carrier —
   and reports the per-layer metrics plus the tracing overhead.  Either
   way every output is checked against the benchmark's own exact
   answers; a failed check marks every update of the run failed and the
   process exits 1.

   Standard output: a provenance line, a workload-properties line, the
   timing samples behind each median, a table of the metrics, and last
   one JSON object [{"correct", "attempted", "failed", "metrics"}]. *)

module Sim = Whats_different.Simulation
module Query = Wd_view.Query
module Registry = Wd_view.Registry
module Fanout = Wd_view.Fanout_sketch
module Stream = Wd_workload.Stream
module Stream_gen = Wd_workload.Stream_gen
module Http = Wd_workload.Http_trace
module Rng = Wd_hashing.Rng
module Universal = Wd_hashing.Universal
module Geometric = Wd_hashing.Geometric
module Mixed = Wd_hashing.Mixed_tabulation
module Network = Wd_net.Network
module Transport = Wd_net.Transport
module Tcp = Wd_net.Transport_tcp
module Frame = Wd_net.Wire.Frame
module Frame_io = Wd_net.Frame_io
module Tracker = Wd_protocol.Tracker_intf
module Dc = Wd_protocol.Dc_tracker

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Workloads *)

(* Hash seed of every run, so that [--seed] changes only the stream. *)
let sim_seed = 1
let theta = 0.03
let alpha = 0.07

type carrier = Sim_carrier | Tcp_carrier of (int * int) list
type sketch_kind = Fm_sketch | Fanout_sketch

type workload = {
  name : string;
  default_updates : int;
  generate : seed:int -> updates:int -> Stream.t;
  primary : Query.t;
  satellites : Query.t list;
  carrier : carrier;
  sketch : sketch_kind;
      (* the sketch family the workload's sending views run, which the
         sketch-layer metrics load *)
}

let satellite_modulus = 1023

(* Updates the clientID view of the default Http_trace configuration
   holds per unit of scale, duplicates included: sizes the trace to an
   update count. *)
let worldcup_updates_per_scale = 2.26e5

let workloads =
  [
    {
      name = "dc-ls-zipf";
      default_updates = 2_000_000;
      generate =
        (fun ~seed ~updates ->
          Stream_gen.zipf ~seed ~skew:1.0 ~sites:10 ~events:updates
            ~universe:1_000_000 ());
      primary = Query.dc ~theta ~alpha Dc.LS;
      satellites = [];
      carrier = Sim_carrier;
      sketch = Fm_sketch;
    };
    {
      name = "dc-sc-fresh";
      default_updates = 200_000;
      generate =
        (fun ~seed ~updates ->
          Stream_gen.uniform ~seed ~sites:100 ~events:updates
            ~universe:updates ());
      primary = Query.dc ~theta ~alpha Dc.SC;
      satellites = [];
      carrier = Sim_carrier;
      sketch = Fm_sketch;
    };
    {
      name = "dc-ls-tcp";
      default_updates = 1_000_000;
      generate =
        (fun ~seed ~updates ->
          Stream_gen.uniform ~seed ~sites:100 ~events:updates
            ~universe:1_000_000 ());
      primary = Query.dc ~theta ~alpha Dc.LS;
      satellites = [];
      carrier = Tcp_carrier [ (0, 50); (50, 50) ];
      sketch = Fm_sketch;
    };
    {
      name = "views-worldcup";
      default_updates = 500_000;
      generate =
        (fun ~seed ~updates ->
          let cfg =
            Http.scaled ~seed
              (Float.of_int updates /. worldcup_updates_per_scale)
          in
          Http.view cfg Http.Client_id Http.Per_server (Http.generate cfg));
      primary = Query.dc ~theta ~alpha Dc.LS;
      satellites =
        List.init satellite_modulus (fun residue ->
            Query.dc
              ~name:(Printf.sprintf "mod%d" residue)
              ~sketch:Query.Fanout
              ~selector:(Query.Key_mod { modulus = satellite_modulus; residue })
              ~theta ~alpha Dc.NS);
      carrier = Sim_carrier;
      sketch = Fanout_sketch;
    };
  ]

let queries w = w.primary :: w.satellites

(* ------------------------------------------------------------------ *)
(* Statistics and output *)

let median xs =
  match List.sort compare xs with
  | [] -> 0.0
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let per n x = if n = 0 then 0.0 else x /. Float.of_int n

(* JSON numbers must be finite; print every digit. *)
let json_float x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_object fields =
  let field (k, v) = json_string k ^ ": " ^ v in
  "{" ^ String.concat ", " (List.map field fields) ^ "}"

(* ------------------------------------------------------------------ *)
(* Output checks: every failure is recorded, and any failure marks the
   whole run failed. *)

let failures = ref []

let check ok fmt =
  Printf.ksprintf (fun msg -> if not ok then failures := msg :: !failures) fmt

(* ------------------------------------------------------------------ *)
(* The benchmark's own exact answers *)

type truth = {
  distinct : int;
  class_routed : int array;  (* arrivals per class mod [satellite_modulus] *)
  class_distinct : int array;  (* distinct items per key class *)
}

let exact_truth stream =
  let seen = Hashtbl.create 65536 in
  let class_routed = Array.make satellite_modulus 0 in
  let class_distinct = Array.make satellite_modulus 0 in
  Stream.iter
    (fun ~site:_ ~item ->
      let c = item mod satellite_modulus in
      class_routed.(c) <- class_routed.(c) + 1;
      if not (Hashtbl.mem seen item) then begin
        Hashtbl.add seen item ();
        class_distinct.(c) <- class_distinct.(c) + 1
      end)
    stream;
  { distinct = Hashtbl.length seen; class_routed; class_distinct }

(* ------------------------------------------------------------------ *)
(* Carriers: the TCP transport with forked relay processes *)

type connection = {
  coord : Tcp.Coordinator.t;
  transport : Transport.t;
  pids : int list;
}

(* Relays still running, killed at exit if a check or an exception cut
   the run short. *)
let live = ref []

let reap pid =
  live := List.filter (( <> ) pid) !live;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> true
  | _ -> false

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (reap pid))
        !live)

let spawn_relay ~port (first_site, count) =
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    (try
       ignore
         (Tcp.Relay.run ~port ~first_site ~count () : Frame_io.site_report);
       Unix._exit 0
     with _ -> Unix._exit 1)
  | pid ->
    live := pid :: !live;
    pid

let connect_tcp ~sites ranges =
  let pids = ref [] in
  let coord =
    Tcp.Coordinator.connect ~timeout:60. ~port:0 ~sites
      ~on_listening:(fun port -> pids := List.map (spawn_relay ~port) ranges)
      ()
  in
  { coord; transport = Tcp.Coordinator.pack coord; pids = !pids }

(* Reap the relays of a closed connection. *)
let finish c =
  List.iter
    (fun pid -> check (reap pid) "relay %d exited abnormally" pid)
    c.pids

(* The reconciliation law of transport_tcp.mli: the ledger, the
   coordinator's wire counters and the relays' own reports agree.
   Returns the bytes that crossed the sockets. *)
let reconcile c =
  let net = Transport.ledger c.transport in
  match Transport.wire_stats c.transport with
  | None ->
    check false "tcp transport reported no wire stats";
    0
  | Some ws ->
    let extra = Frame.header_bytes - Wd_net.Wire.header_bytes in
    check
      (ws.Transport.wire_bytes_up
      = Network.bytes_up net - ws.Transport.skipped_up
        + (ws.Transport.frames_up * extra))
      "wire bytes up do not reconcile with the ledger";
    check
      (ws.Transport.wire_bytes_down
      = Network.bytes_down net - ws.Transport.skipped_down
        + (ws.Transport.frames_down * extra))
      "wire bytes down do not reconcile with the ledger";
    let reports = Tcp.Coordinator.reports c.coord in
    List.iter
      (fun (first, count, r) ->
        check (r <> None) "relay %d+%d returned no report" first count)
      reports;
    let sum f =
      List.fold_left
        (fun acc (_, _, r) -> acc + Option.fold ~none:0 ~some:f r)
        0 reports
    in
    let received = sum (fun r -> r.Frame_io.bytes_received) in
    let sent = sum (fun r -> r.Frame_io.bytes_sent) in
    check
      (received
      = ws.Transport.wire_bytes_down + ws.Transport.radio_copy_bytes
        + ws.Transport.control_bytes
        + (ws.Transport.span_frames_down * Frame.span_bytes)
        + (ws.Transport.batch_envelopes * Frame.header_bytes))
      "relay received bytes do not reconcile";
    check
      (sent
      = ws.Transport.wire_bytes_up
        + (ws.Transport.span_frames_up * Frame.span_bytes))
      "relay sent bytes do not reconcile";
    received + sent

(* [sites] is the stream's site count, computed once before any timing:
   [Stream.num_sites] scans the whole stream. *)
let connect ~sites w =
  match w.carrier with
  | Sim_carrier -> None
  | Tcp_carrier ranges -> Some (connect_tcp ~sites ranges)

let create_registry ?transport ~sites w stream =
  Registry.create ?transport
    ~default_window:(max 1 (Stream.length stream / 4))
    ~seed:sim_seed ~sites (queries w)

(* ------------------------------------------------------------------ *)
(* One Simulation.run and its checked outcome *)

type outcome = {
  ledger_bytes : int;  (* every view's ledger plus backbone bytes *)
  wire_bytes : int;  (* bytes that crossed the carrier *)
  sends : int;
  primary_sends : int;
  max_rel_error : float;
  estimates : float array;  (* per view *)
  view_bytes : int array;
  error_series : (int * float) array;
  lost : int;
  envelopes : int;
  inner_frames : int;
  control_frames : int;
}

(* A satellite's final relative error against the exact distinct count
   of its key class (view [i] holds class [i - 1]). *)
let satellite_error truth (vr : Sim.view_report) i =
  let exact = Float.of_int truth.class_distinct.(i - 1) in
  if exact = 0.0 then vr.Sim.view_estimate
  else Float.abs (vr.Sim.view_estimate -. exact) /. exact

(* Check one run record against the benchmark's own truth. *)
let check_run ~expected_distinct truth w (r : Sim.run) =
  check
    (r.Sim.final_truth = expected_distinct)
    "final_truth %d differs from the exact distinct count %d" r.Sim.final_truth
    expected_distinct;
  check (r.Sim.lost_updates = 0) "%d updates lost" r.Sim.lost_updates;
  check
    (Array.length r.Sim.view_reports = List.length (queries w))
    "run reported %d views, expected %d"
    (Array.length r.Sim.view_reports)
    (List.length (queries w));
  check
    (r.Sim.view_reports.(0).Sim.view_routed = r.Sim.updates)
    "primary routed %d of %d updates" r.Sim.view_reports.(0).Sim.view_routed
    r.Sim.updates;
  Array.iteri
    (fun i (vr : Sim.view_report) ->
      if i > 0 then
        check
          (vr.Sim.view_routed = truth.class_routed.(i - 1))
          "view %s routed %d arrivals, its key class has %d" vr.Sim.view_label
          vr.Sim.view_routed
          truth.class_routed.(i - 1))
    r.Sim.view_reports;
  check
    (Float.is_finite r.Sim.final_estimate && r.Sim.final_estimate > 0.0)
    "primary estimate %g is not a positive number" r.Sim.final_estimate

let outcome_of ?conn truth (r : Sim.run) =
  let reports = r.Sim.view_reports in
  let ledger_bytes =
    Array.fold_left (fun acc vr -> acc + vr.Sim.view_total_bytes) 0 reports
    + r.Sim.backbone_bytes
  in
  let wire_bytes =
    match conn with None -> ledger_bytes | Some c -> reconcile c
  in
  let ws = Option.bind conn (fun c -> Transport.wire_stats c.transport) in
  let wsf f = Option.fold ~none:0 ~some:f ws in
  let series_max =
    Array.fold_left (fun acc (_, e) -> Float.max acc e) 0.0 r.Sim.error_series
  in
  let max_rel_error = ref series_max in
  Array.iteri
    (fun i vr ->
      if i > 0 then
        max_rel_error := Float.max !max_rel_error (satellite_error truth vr i))
    reports;
  {
    ledger_bytes;
    wire_bytes;
    sends = Array.fold_left (fun acc vr -> acc + vr.Sim.view_sends) 0 reports;
    primary_sends = reports.(0).Sim.view_sends;
    max_rel_error = !max_rel_error;
    estimates = Array.map (fun vr -> vr.Sim.view_estimate) reports;
    view_bytes = Array.map (fun vr -> vr.Sim.view_total_bytes) reports;
    error_series = r.Sim.error_series;
    lost = r.Sim.lost_updates;
    envelopes = wsf (fun s -> s.Transport.batch_envelopes);
    inner_frames = wsf (fun s -> s.Transport.batch_inner_frames);
    control_frames = wsf (fun s -> s.Transport.control_frames);
  }

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* A repeat on the same stream must reproduce bytes, sends and every
   estimate bit for bit. *)
let check_repeat ~what (a : outcome) (b : outcome) =
  check (a.ledger_bytes = b.ledger_bytes) "%s: ledger bytes %d <> %d" what
    a.ledger_bytes b.ledger_bytes;
  check (a.view_bytes = b.view_bytes) "%s: per-view bytes differ" what;
  check (a.sends = b.sends) "%s: sends %d <> %d" what a.sends b.sends;
  check
    (Array.length a.estimates = Array.length b.estimates
    && Array.for_all2 same_bits a.estimates b.estimates)
    "%s: estimates differ" what;
  check
    (Array.length a.error_series = Array.length b.error_series
    && Array.for_all2
         (fun (i, x) (j, y) -> i = j && same_bits x y)
         a.error_series b.error_series)
    "%s: error series differ" what

let simulate ?conn w stream =
  Sim.run
    ?transport:(Option.map (fun c -> c.transport) conn)
    ~seed:sim_seed ~views:w.satellites w.primary stream

(* One checked Simulation.run on the workload's carrier: its outcome and
   wall time, connect excluded. *)
let carrier_run ~sites ~expected_distinct truth w stream =
  let conn = connect ~sites w in
  let t0 = now () in
  let r = simulate ?conn w stream in
  let dt = now () -. t0 in
  Option.iter finish conn;
  check_run ~expected_distinct truth w r;
  (outcome_of ?conn truth r, dt)

(* ------------------------------------------------------------------ *)
(* Feeds that mirror Simulation.run's: the same slices (20 byte
   checkpoints merged with 200 error samples), fed through the public
   [Registry] and tracker functions and timed around each call.  No
   correctness check rests on them, because the slicing is
   Simulation.run's private default. *)

let sample_positions n samples =
  let samples = max 1 (min samples n) in
  Array.init samples (fun i -> max 1 ((i + 1) * n / samples))

let slice_boundaries n =
  Array.append (sample_positions n 20) (sample_positions n 200)
  |> Array.to_list |> List.sort_uniq compare |> Array.of_list

let total_sends reg =
  let s = ref 0 in
  for i = 0 to Registry.views reg - 1 do
    s := !s + Tracker.sends (Registry.view_tracker reg i)
  done;
  !s

(* A registry over [qs] fed the slices ending at [boundaries].  Returns
   the feed seconds, minor words and per-slice (len, sends, seconds). *)
let feed_pass ~sites qs stream boundaries =
  let reg = Registry.create ~seed:sim_seed ~sites qs in
  let tracker = Registry.packed reg in
  let sites = stream.Stream.sites and items = stream.Stream.items in
  let slices = ref [] and total = ref 0.0 and prev = ref 0 in
  let w0 = Gc.minor_words () in
  Array.iter
    (fun b ->
      if b > !prev then begin
        let s0 = total_sends reg in
        let t0 = now () in
        Tracker.observe_batch tracker ~sites ~items ~pos:!prev ~len:(b - !prev);
        let dt = now () -. t0 in
        let sends = total_sends reg - s0 in
        slices :=
          (Float.of_int (b - !prev), Float.of_int sends, dt) :: !slices;
        total := !total +. dt;
        prev := b
      end)
    boundaries;
  let words = Gc.minor_words () -. w0 in
  Registry.close reg;
  (!total, words, !slices)

(* The traced run's copy of Simulation.run's driver: the registry feed,
   the harness's ground truth and its error samples, with the time of
   each part summed.  The truth and overhead figures of the traced run
   are this copy's, not Simulation.run's, whose per-item bookkeeping
   differs in detail. *)
type replay = {
  registry_s : float;  (* registry create, feed and close *)
  feed_s : float;
  truth_s : float;
  total_s : float;
  final_truth : int;
  plane_words : int;
}

let replay ~sites w stream =
  let registry_s = ref 0.0 and feed_s = ref 0.0 and truth_s = ref 0.0 in
  let timed acc f =
    let t0 = now () in
    let x = f () in
    acc := !acc +. (now () -. t0);
    x
  in
  let start = now () in
  let reg = timed registry_s (fun () -> create_registry ~sites w stream) in
  let tracker = Registry.packed reg in
  let n = Stream.length stream in
  let err_at = Hashtbl.create 256 in
  Array.iter (fun j -> Hashtbl.replace err_at j ()) (sample_positions n 200);
  let seen = Hashtbl.create 4096 in
  let site_of = stream.Stream.sites and items = stream.Stream.items in
  let prev = ref 0 in
  Array.iter
    (fun b ->
      if b > !prev then begin
        timed feed_s (fun () ->
            Tracker.observe_batch tracker ~sites:site_of ~items ~pos:!prev
              ~len:(b - !prev));
        timed truth_s (fun () ->
            for j = !prev to b - 1 do
              let item = Array.unsafe_get items j in
              Hashtbl.replace seen item
                (1 + Option.value ~default:0 (Hashtbl.find_opt seen item))
            done);
        prev := b
      end;
      if Hashtbl.mem err_at b then begin
        let n0 = Float.of_int (Hashtbl.length seen) in
        ignore
          (Sys.opaque_identity (Float.abs (Tracker.estimate tracker -. n0) /. n0))
      end)
    (slice_boundaries n);
  let plane_words = Registry.plane_words reg in
  timed registry_s (fun () -> Registry.close reg);
  let total_s = now () -. start in
  {
    registry_s = !registry_s +. !feed_s;
    feed_s = !feed_s;
    truth_s = !truth_s;
    total_s;
    final_truth = Hashtbl.length seen;
    plane_words;
  }

(* ------------------------------------------------------------------ *)
(* Repetition helpers *)

(* Run [f] until [budget] seconds have passed and at least [min_reps]
   times; return the list of [f]'s results. *)
let repeat ?(min_reps = 3) ~budget f =
  let deadline = now () +. budget in
  let rec go acc reps =
    if reps >= min_reps && now () >= deadline then List.rev acc
    else go (f () :: acc) (reps + 1)
  in
  go [] 0

(* Median seconds and minor words per unit of work of [f]. *)
let per_unit ~budget ~units f =
  let samples =
    repeat ~budget (fun () ->
        let w0 = Gc.minor_words () in
        let t0 = now () in
        f ();
        let t1 = now () in
        (t1 -. t0, Gc.minor_words () -. w0))
  in
  let u = Float.of_int (max 1 units) in
  (median (List.map fst samples) /. u, median (List.map snd samples) /. u)

(* Set-up: connect the carrier and compile the query list.  Timed from
   before the relays fork to the registry being ready. *)
let setup_once ~sites w stream =
  let t0 = now () in
  let conn = connect ~sites w in
  let t_conn = now () in
  let reg =
    create_registry ?transport:(Option.map (fun c -> c.transport) conn) ~sites
      w stream
  in
  let t1 = now () in
  Registry.close reg;
  Option.iter finish conn;
  (t1 -. t0, t_conn -. t0)

(* One set-up sample: set-ups back to back until [setup_sample_s] has
   passed, so that a simulator workload's set-up, which takes well under
   a millisecond, is timed far above the clock's resolution.  Mean
   seconds per set-up. *)
let setup_sample_s = 0.05

let setup_sample ~sites w stream =
  let rec go total k =
    if total >= setup_sample_s then total /. Float.of_int k
    else go (total +. fst (setup_once ~sites w stream)) (k + 1)
  in
  go 0.0 0

(* ------------------------------------------------------------------ *)
(* Heap growth.  Generating a stream leaves freed heap behind that later
   allocations reuse, so the growth is measured in a fresh process of
   this executable: it receives the stream marshalled over a pipe, so
   its heap holds the stream and little else, and after a Gc.compact it
   samples the heap size at the end of every major cycle through one
   set-up and one run.  It prints the growth in MiB. *)

let mib words = Float.of_int (words * (Sys.word_size / 8)) /. 1048576.0

let heap_probe_child w =
  let sites, items = (Marshal.from_channel stdin : int array * int array) in
  let stream = Stream.make ~sites ~items in
  let sites = Stream.num_sites stream in
  Gc.compact ();
  let base = (Gc.quick_stat ()).Gc.heap_words in
  let peak = ref base in
  let sample () =
    let h = (Gc.quick_stat ()).Gc.heap_words in
    if h > !peak then peak := h
  in
  let alarm = Gc.create_alarm sample in
  ignore (setup_once ~sites w stream : float * float);
  sample ();
  let conn = connect ~sites w in
  let r = simulate ?conn w stream in
  sample ();
  Option.iter finish conn;
  Gc.delete_alarm alarm;
  ignore (Sys.opaque_identity r : Sim.run);
  Printf.printf "%.17g\n" (mib (!peak - base));
  exit (if !failures = [] then 0 else 1)

let heap_probe w stream =
  let exe = Sys.executable_name in
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  flush stdout;
  flush stderr;
  let pid =
    Unix.create_process exe
      [| exe; "--heap-probe"; "--workload"; w.name; "--seed"; "0" |]
      in_r out_w Unix.stderr
  in
  live := pid :: !live;
  Unix.close in_r;
  Unix.close out_w;
  let oc = Unix.out_channel_of_descr in_w in
  Marshal.to_channel oc (stream.Stream.sites, stream.Stream.items) [];
  close_out oc;
  let ic = Unix.in_channel_of_descr out_r in
  let line = try input_line ic with End_of_file -> "" in
  close_in ic;
  check (reap pid) "heap probe exited abnormally";
  match float_of_string_opt line with
  | Some v -> v
  | None ->
    check false "heap probe printed %S" line;
    0.0

(* ------------------------------------------------------------------ *)
(* Host calibration.  On a shared host the machine's speed drifts by
   20% and more over tens of seconds, and every wall time drifts with
   it.  A fixed kernel, calibrate.exe, is timed next to every end-to-end
   sample, and those samples are reported in reference seconds: sample /
   kernel time × [kernel_ref_s].  The kernel runs in a process of its
   own, started with the default GC settings, and shares no code, heap
   or state with the code under test, so the ratio keeps the code's
   effect and drops the host's.  The process lives through the run and
   times one pass of the kernel per request. *)

let kernel_ref_s = 0.1

type kernel = { kernel_pid : int; request : out_channel; reply : in_channel }

let start_kernel () =
  let exe =
    Filename.concat (Filename.dirname Sys.executable_name) "calibrate.exe"
  in
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  flush stdout;
  flush stderr;
  let pid = Unix.create_process exe [| exe |] in_r out_w Unix.stderr in
  live := pid :: !live;
  Unix.close in_r;
  Unix.close out_w;
  {
    kernel_pid = pid;
    request = Unix.out_channel_of_descr in_w;
    reply = Unix.in_channel_of_descr out_r;
  }

(* One pass of the kernel, in seconds. *)
let kernel_pass k =
  output_char k.request '\n';
  flush k.request;
  let line = try input_line k.reply with End_of_file -> "" in
  match float_of_string_opt line with
  | Some v when v > 0.0 -> v
  | _ ->
    check false "calibration kernel printed %S" line;
    Float.nan

let stop_kernel k =
  close_out k.request;
  close_in k.reply;
  check (reap k.kernel_pid) "calibration kernel exited abnormally"

(* Median of (seconds, kernel seconds) samples in reference seconds. *)
let calibrated samples =
  median (List.map (fun (t, k) -> t /. k *. kernel_ref_s) samples)

(* ------------------------------------------------------------------ *)
(* The untraced run: end-to-end metrics *)

(* Same seed again: the regenerated stream must be identical, and
   Simulation.run on it must reproduce the reference run bit for bit.
   Returns the workload's measured properties. *)
let same_seed_properties ~sites ~seed ~updates ~expected_distinct truth w
    stream reference =
  let n = Stream.length stream in
  let again = w.generate ~seed ~updates in
  check
    (again.Stream.sites = stream.Stream.sites
    && again.Stream.items = stream.Stream.items)
    "the same seed generated a different stream";
  let o, _ = carrier_run ~sites ~expected_distinct truth w again in
  check_repeat ~what:"same-seed run" reference o;
  let _, _, slices = feed_pass ~sites (queries w) stream (slice_boundaries n) in
  let send_slices = List.filter (fun (_, sends, _) -> sends > 0.0) slices in
  let o = reference in
  let kilo x = json_float (1000.0 *. per n (Float.of_int x)) in
  [
    ("updates", string_of_int n);
    ("distinct", string_of_int truth.distinct);
    ("duplication_factor", json_float (per truth.distinct (Float.of_int n)));
    ("primary_sends_per_kupdate", kilo o.primary_sends);
    ("satellite_sends_per_kupdate", kilo (o.sends - o.primary_sends));
    ( "send_slice_share",
      json_float
        (per (List.length slices) (Float.of_int (List.length send_slices))) );
    ( "frames_per_envelope",
      json_float (per o.envelopes (Float.of_int o.inner_frames)) );
  ]

type result = {
  metrics : (string * float * string) list;
  printed : (string * float * string) list;
      (* reported in the table only: a seed-random accuracy figure that
         cannot carry a regression bound *)
  attempted : int;
  lost : int;
  properties : (string * string) list;
  samples : (string * float list) list;
      (* every timing sample behind a reported median, in seconds *)
}

let run_end_to_end ~sites ~seconds ~expected_distinct ~seed ~updates truth w
    stream =
  let n = Stream.length stream in
  (* Set-up is sampled before every timed repeat as well, so its median
     spans the same stretch of time as the runs'. *)
  let kernel = start_kernel () in
  let setups = ref [] in
  let setup () =
    let k = kernel_pass kernel in
    setups := (setup_sample ~sites w stream, k) :: !setups;
    k
  in
  for _ = 1 to 3 do
    ignore (setup () : float)
  done;
  let timed_run () =
    (* Every repeat starts from a collected heap, so that the major
       collector's phase at the start does not vary between repeats. *)
    Gc.full_major ();
    carrier_run ~sites ~expected_distinct truth w stream
  in
  let reference, _ = timed_run () in
  let peak_mib = heap_probe w stream in
  let runs =
    repeat ~budget:seconds (fun () ->
        let k = setup () in
        let o, dt = timed_run () in
        check_repeat ~what:"repeat on the same stream" reference o;
        (dt, k))
  in
  stop_kernel kernel;
  let properties =
    same_seed_properties ~sites ~seed ~updates ~expected_distinct truth w
      stream reference
  in
  let o = reference in
  let fn = Float.of_int n in
  let wall samples = median (List.map fst samples) in
  let metrics =
    [
      ("updates_per_s", fn /. calibrated runs, "updates/ref-s");
      ("setup_s", calibrated !setups, "s");
      ("bytes_per_update", per n (Float.of_int o.ledger_bytes), "bytes/update");
      ( "wire_bytes_per_update",
        per n (Float.of_int o.wire_bytes),
        "bytes/update" );
      ( "messages_per_kupdate",
        1000.0 *. per n (Float.of_int o.sends),
        "msgs/kupdate" );
      ("peak_heap_mb", peak_mib, "MiB");
    ]
  in
  (* The reference run, the timed repeats and the same-seed run. *)
  let repeats = 2 + List.length runs in
  {
    metrics;
    printed =
      [
        ("wall_updates_per_s", fn /. wall runs, "updates/s");
        ("wall_setup_s", wall !setups, "s");
        ("max_rel_error", o.max_rel_error, "ratio");
      ];
    attempted = n * repeats;
    lost = o.lost * repeats;
    properties;
    samples =
      [
        ("run_s", List.map fst runs);
        ("run_kernel_s", List.map snd runs);
        ("setup_s", List.rev_map fst !setups);
        ("setup_kernel_s", List.rev_map snd !setups);
      ];
  }

(* ------------------------------------------------------------------ *)
(* The traced run: per-layer metrics, timed around calls into each
   layer's public functions.  Layers a workload does not run read 0. *)

(* Least-squares split of slice time into a per-update and a per-send
   cost: minimise sum (t - u * len - s * sends)^2 over the slices. *)
let split_cost samples =
  let sll, sls, sss, slt, sst =
    List.fold_left
      (fun (sll, sls, sss, slt, sst) (l, s, t) ->
        ( sll +. (l *. l),
          sls +. (l *. s),
          sss +. (s *. s),
          slt +. (l *. t),
          sst +. (s *. t) ))
      (0.0, 0.0, 0.0, 0.0, 0.0) samples
  in
  let det = (sll *. sss) -. (sls *. sls) in
  if sss = 0.0 || Float.abs det < 1e-9 *. sll *. sss then
    ((if sll = 0.0 then 0.0 else slt /. sll), 0.0)
  else
    ( ((slt *. sss) -. (sst *. sls)) /. det,
      ((sst *. sll) -. (slt *. sls)) /. det )

module Sketch_layer (S : Wd_sketch.Sketch_intf.DISTINCT_SKETCH) = struct
  (* Add cost per item, estimate and merge cost per call on sketches
     loaded with the workload's items, and the serialized size. *)
  let measure ~budget ~family items =
    let n = Array.length items in
    let chunk = 256 in
    let chunks =
      Array.init ((n + chunk - 1) / chunk) (fun c ->
          Array.sub items (c * chunk) (min chunk (n - (c * chunk))))
    in
    let load lo hi =
      let sk = S.create family in
      for c = lo to hi - 1 do
        S.add_batch sk chunks.(c)
      done;
      sk
    in
    let nc = Array.length chunks in
    let add_ns, add_words =
      per_unit ~budget ~units:n (fun () ->
          ignore (Sys.opaque_identity (load 0 nc)))
    in
    let full = load 0 nc in
    let calls = 200 in
    let estimate_ns, _ =
      per_unit ~budget:(budget /. 2.0) ~units:calls (fun () ->
          for _ = 1 to calls do
            ignore (Sys.opaque_identity (S.estimate full))
          done)
    in
    let dst = load 0 (nc / 2) and src = load (nc / 2) nc in
    let merge_ns, _ =
      per_unit ~budget:(budget /. 2.0) ~units:calls (fun () ->
          for _ = 1 to calls do
            S.merge_into ~dst src
          done)
    in
    [
      ("sketch.add_batch_ns", add_ns *. 1e9, "ns");
      ("sketch.add_batch_words", add_words, "words");
      ("sketch.estimate_ns", estimate_ns *. 1e9, "ns");
      ("sketch.merge_ns", merge_ns *. 1e9, "ns");
      ("sketch.size_bytes", Float.of_int (S.size_bytes full), "bytes");
    ]
end

module Fm_layer = Sketch_layer (Wd_sketch.Fm)
module Fanout_layer = Sketch_layer (Fanout)

let hashing_layer ~budget items =
  let n = Array.length items in
  let universal = Universal.of_rng (Rng.create sim_seed) in
  let level_ns, level_words =
    per_unit ~budget ~units:n (fun () ->
        let acc = ref 0 in
        for j = 0 to n - 1 do
          acc := !acc + Geometric.level universal (Array.unsafe_get items j)
        done;
        ignore (Sys.opaque_identity !acc))
  in
  let mixed = Mixed.create (Rng.create sim_seed) in
  let mixed_ns, mixed_words =
    per_unit ~budget ~units:n (fun () ->
        let acc = ref 0 in
        for j = 0 to n - 1 do
          acc :=
            !acc lxor Int64.to_int (Mixed.hash mixed (Array.unsafe_get items j))
        done;
        ignore (Sys.opaque_identity !acc))
  in
  [
    ("hashing.level_ns", level_ns *. 1e9, "ns");
    ("hashing.level_words", level_words, "words");
    ("hashing.mixed_tab_ns", mixed_ns *. 1e9, "ns");
    ("hashing.mixed_tab_words", mixed_words, "words");
  ]

(* Slices of 64 to 1023 updates: their varied lengths and send counts
   identify the per-update and per-send costs, which the equal-length
   slices of Simulation.run confound. *)
let varied_boundaries n =
  let rng = Rng.create sim_seed in
  let acc = ref [] and pos = ref 0 in
  while !pos < n do
    pos := min n (!pos + 64 + Rng.int rng 960);
    acc := !pos :: !acc
  done;
  Array.of_list (List.rev !acc)

let frame_codec_ns ~budget =
  let buf = Bytes.create Frame.header_bytes in
  let frames = 100_000 in
  let ns, _ =
    per_unit ~budget ~units:frames (fun () ->
        let acc = ref 0 in
        for i = 1 to frames do
          Frame.encode_header buf ~pos:0 ~kind:Frame.Deliver ~site:(i land 127)
            ~length:(i land 255);
          match Frame.decode_header buf ~pos:0 with
          | Ok h when h.Frame.site = i land 127 && h.Frame.length = i land 255
            ->
            acc := !acc + h.Frame.length
          | Ok _ | Error _ -> check false "frame header failed to round-trip"
        done;
        ignore (Sys.opaque_identity !acc))
  in
  ns *. 1e9

(* One Simulation.run on the simulator, checked against [reference];
   returns seconds, minor words and major collections. *)
let sim_sample ~expected_distinct truth w stream reference =
  let m0 = (Gc.quick_stat ()).Gc.major_collections in
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let r = simulate w stream in
  let dt = now () -. t0 in
  let words = Gc.minor_words () -. w0 in
  let majors = (Gc.quick_stat ()).Gc.major_collections - m0 in
  check_run ~expected_distinct truth w r;
  check_repeat ~what:"simulator repeat" reference (outcome_of truth r);
  (dt, words, Float.of_int majors)

let run_traced ~sites ~seconds ~expected_distinct ~seed ~updates truth w stream =
  let n = Stream.length stream in
  let fn = Float.of_int n in
  let items = stream.Stream.items in
  let budget = seconds /. 14.0 in
  let attempted = ref 0 in
  let count_updates () = attempted := !attempted + n in
  (* Reference: one checked run on the carrier and the same-seed
     run. *)
  let reference, _ = carrier_run ~sites ~expected_distinct truth w stream in
  count_updates ();
  let properties =
    same_seed_properties ~sites ~seed ~updates ~expected_distinct truth w
      stream reference
  in
  count_updates ();
  let hashing = hashing_layer ~budget items in
  let sketch =
    let rng = Rng.create sim_seed in
    match w.sketch with
    | Fm_sketch ->
      Fm_layer.measure ~budget
        ~family:(Wd_sketch.Fm.family ~rng ~accuracy:alpha ~confidence:0.9)
        items
    | Fanout_sketch ->
      Fanout_layer.measure ~budget
        ~family:(Fanout.family ~rng ~accuracy:alpha ~confidence:0.9)
        items
  in
  (* Protocol: the primary tracker alone. *)
  let passes =
    repeat ~budget:(2.0 *. budget) (fun () ->
        count_updates ();
        feed_pass ~sites [ w.primary ] stream (slice_boundaries n))
  in
  let observe_s = median (List.map (fun (t, _, _) -> t) passes) in
  let observe_words = median (List.map (fun (_, wd, _) -> wd) passes) in
  let update_s, send_s =
    repeat ~budget (fun () ->
        count_updates ();
        let _, _, slices =
          feed_pass ~sites [ w.primary ] stream (varied_boundaries n)
        in
        slices)
    |> List.concat |> split_cost
  in
  (* Driver: untraced Simulation.run on the simulator against the
     traced copy of its feed. *)
  let pairs =
    repeat ~budget:(4.0 *. budget) (fun () ->
        count_updates ();
        let sim = sim_sample ~expected_distinct truth w stream reference in
        count_updates ();
        let rp = replay ~sites w stream in
        check
          (rp.final_truth = expected_distinct)
          "traced replay truth %d differs from the exact distinct count %d"
          rp.final_truth expected_distinct;
        (sim, rp))
  in
  let sims = List.map fst pairs and replays = List.map snd pairs in
  let sim_s = median (List.map (fun (t, _, _) -> t) sims) in
  let of_replays f = median (List.map f replays) in
  let feed_s = of_replays (fun rp -> rp.feed_s) in
  let registry_s = of_replays (fun rp -> rp.registry_s) in
  let truth_s = of_replays (fun rp -> rp.truth_s) in
  let traced_s = of_replays (fun rp -> rp.total_s) in
  (* Views: marginal cost of the satellites over the primary alone. *)
  let view_metrics =
    if w.satellites = [] then
      [
        ("view.create_s", 0.0, "s");
        ("view.fanout_ns", 0.0, "ns");
        ("view.satellite_sends_per_kupdate", 0.0, "sends/kupdate");
        ("view.plane_words", 0.0, "words");
      ]
    else
      let create qs =
        median
          (repeat ~budget:(budget /. 2.0) (fun () ->
               let t0 = now () in
               let reg = Registry.create ~seed:sim_seed ~sites qs in
               let dt = now () -. t0 in
               Registry.close reg;
               dt))
      in
      [
        ("view.create_s", create (queries w) -. create [ w.primary ], "s");
        ("view.fanout_ns", (feed_s -. observe_s) /. fn *. 1e9, "ns");
        ( "view.satellite_sends_per_kupdate",
          1000.0
          *. Float.of_int (reference.sends - reference.primary_sends)
          /. fn,
          "sends/kupdate" );
        ( "view.plane_words",
          Float.of_int (List.hd replays).plane_words,
          "words" );
      ]
  in
  (* Carrier: the TCP run against the same run on the simulator. *)
  let net_metrics =
    match w.carrier with
    | Sim_carrier ->
      [
        ("net.connect_s", 0.0, "s");
        ("net.carrier_ns", 0.0, "ns");
        ("net.frames_per_envelope", 0.0, "frames/envelope");
        ("net.control_frames_per_send", 0.0, "frames/send");
        ("net.frame_codec_ns", 0.0, "ns");
      ]
    | Tcp_carrier _ ->
      let connects =
        repeat ~budget:(budget /. 2.0) (fun () ->
            snd (setup_once ~sites w stream))
      in
      let tcp =
        repeat ~budget:(2.0 *. budget) (fun () ->
            count_updates ();
            let o, dt = carrier_run ~sites ~expected_distinct truth w stream in
            check_repeat ~what:"tcp repeat" reference o;
            dt)
      in
      let o = reference in
      [
        ("net.connect_s", median connects, "s");
        ( "net.carrier_ns",
          (median tcp -. sim_s) /. fn *. 1e9,
          "ns" );
        ( "net.frames_per_envelope",
          per o.envelopes (Float.of_int o.inner_frames),
          "frames/envelope" );
        ( "net.control_frames_per_send",
          per o.primary_sends (Float.of_int o.control_frames),
          "frames/send" );
        ("net.frame_codec_ns", frame_codec_ns ~budget:(budget /. 2.0), "ns");
      ]
  in
  let metrics =
    hashing @ sketch
    @ [
        ("protocol.observe_ns", observe_s /. fn *. 1e9, "ns");
        ("protocol.observe_words", observe_words /. fn, "words");
        ("protocol.update_ns", update_s *. 1e9, "ns");
        ("protocol.send_ns", send_s *. 1e9, "ns");
        ("protocol.max_rel_error", reference.max_rel_error, "ratio");
        ("core.driver_ns", (sim_s -. registry_s) /. fn *. 1e9, "ns");
        ("core.truth_ns", truth_s /. fn *. 1e9, "ns");
        ( "core.run_words",
          median (List.map (fun (_, wd, _) -> wd) sims) /. fn,
          "words" );
        ( "core.major_gcs_per_mupdate",
          median (List.map (fun (_, _, m) -> m) sims) *. 1e6 /. fn,
          "GCs/Mupdate" );
      ]
    @ view_metrics @ net_metrics
    @ [
        ("trace.untraced_updates_per_s", fn /. sim_s, "updates/s");
        ("trace.traced_updates_per_s", fn /. traced_s, "updates/s");
        ("trace.overhead_share", (traced_s /. sim_s) -. 1.0, "ratio");
      ]
  in
  {
    metrics;
    printed = [];
    attempted = !attempted;
    lost = reference.lost;
    properties;
    samples = [ ("run_s", List.map (fun (t, _, _) -> t) sims) ];
  }

(* ------------------------------------------------------------------ *)
(* Command line *)

let usage =
  "wdbench.exe --workload NAME --seed N --seconds S --trace 0|1 [--updates N] \
   [--inject-wrong-truth] [--rev REV] [--flambda BOOL] [--source-sha256 HEX]"

let () =
  (* A child process that dies must show as a failed write, not kill the
     benchmark. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload = ref "" and seed = ref (-1) and seconds = ref 10.0 in
  let trace = ref 0 and updates = ref 0 and inject = ref false in
  let probe = ref false in
  let rev = ref "unknown" and flambda = ref "unknown" in
  let source = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed (shapes the stream)");
      ("--seconds", Arg.Set_float seconds, "S seconds to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) run");
      ("--updates", Arg.Set_int updates, "N stream length (default: own)");
      ( "--inject-wrong-truth",
        Arg.Set inject,
        " expect one more distinct item than the stream holds (self-test)" );
      ( "--heap-probe",
        Arg.Set probe,
        " measure the heap growth of a stream read from stdin" );
      ("--rev", Arg.Set_string rev, "REV source revision, for provenance");
      ("--flambda", Arg.Set_string flambda, "BOOL compiler flambda setting");
      ("--source-sha256", Arg.Set_string source, "HEX digest of the sources");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
      prerr_endline
        ("wdbench: unknown workload " ^ json_string !workload ^ "; one of: "
        ^ String.concat ", " (List.map (fun w -> w.name) workloads));
      exit 2
  in
  if !probe then heap_probe_child w;
  if !seed < 0 || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  let updates = if !updates > 0 then !updates else w.default_updates in
  let t0 = now () in
  let stream = w.generate ~seed:!seed ~updates in
  let generate_s = now () -. t0 in
  let truth = exact_truth stream in
  let sites = Stream.num_sites stream in
  let expected_distinct = truth.distinct + if !inject then 1 else 0 in
  let run = if !trace = 0 then run_end_to_end else run_traced in
  let n = Stream.length stream in
  let { metrics; printed; attempted; lost; properties; samples } =
    try
      run ~sites ~seconds:!seconds ~expected_distinct ~seed:!seed ~updates
        truth w stream
    with e ->
      check false "run raised %s" (Printexc.to_string e);
      {
        metrics = [];
        printed = [];
        attempted = n;
        lost = 0;
        properties = [];
        samples = [];
      }
  in
  let repeats =
    List.length (Option.value ~default:[] (List.assoc_opt "run_s" samples))
  in
  let correct = !failures = [] in
  let failed = if correct then lost else attempted in
  List.iter
    (fun msg -> prerr_endline ("wdbench: check failed: " ^ msg))
    (List.sort_uniq compare !failures);
  print_endline
    (json_object
       [
         ( "provenance",
           json_object
             [
               ("workload", json_string w.name);
               ("seed", string_of_int !seed);
               ("updates", string_of_int n);
               ("repeats", string_of_int repeats);
               ("seconds", json_float !seconds);
               ("trace", string_of_int !trace);
               ("protocol_seed", string_of_int sim_seed);
               ("git_rev", json_string !rev);
               ("source_sha256", json_string !source);
               ("ocaml_version", json_string Sys.ocaml_version);
               ("flambda", json_string !flambda);
               ( "recommended_domain_count",
                 string_of_int (Domain.recommended_domain_count ()) );
               ("stream_generate_s", json_float generate_s);
             ] );
       ]);
  print_endline (json_object [ ("properties", json_object properties) ]);
  let json_list xs = "[" ^ String.concat ", " (List.map json_float xs) ^ "]" in
  print_endline
    (json_object
       [
         ( "samples",
           json_object (List.map (fun (k, xs) -> (k, json_list xs)) samples) );
       ]);
  let share = per attempted (Float.of_int failed) in
  List.iter
    (fun (name, v, unit) -> Printf.printf "%-36s %18.6f %s\n" name v unit)
    (metrics @ printed @ [ ("failed_update_share", share, "ratio") ]);
  print_endline
    (json_object
       [
         ("correct", string_of_bool correct);
         ("attempted", string_of_int (max 1 attempted));
         ("failed", string_of_int failed);
         ( "metrics",
           json_object
             (List.map
                (fun (name, v, unit) ->
                  ( name,
                    json_object
                      [ ("value", json_float v); ("unit", json_string unit) ] ))
                metrics) );
       ]);
  exit (if correct then 0 else 1)
