(* What every workload shares: the run record, clocks, and the readers
   of the program's own Dpm_obs metrics. *)

let now = Unix.gettimeofday

type outcome = {
  attempted : int;
  failed : int;
  failures : string list;  (** one line per failed op, capped *)
  setup_s : float;
      (** median over a pass's repeated set-ups; of a combined run, the
          fastest pass's *)
  wall_s : float;
      (** the timed phase, closed loop; of a combined run, the sum of
          its per-op latencies *)
  latencies : float array;  (** seconds, one per op *)
  labels : string array;  (** population of each op *)
  populations : (string * int) list;  (** cost order, for the rule *)
  counts : string list;  (** population count lines to print *)
  peak_rss_mb : float;
  gc_alloc_mb_per_op : float;
  gc_major_per_op : float;
  layers : (string * float) list;  (** traced runs only *)
}

(* Set-up runs [setup_repeats] times before the timed phase of a pass
   (the last result is the one used) and as many times again after it,
   and the median of all of them, with any samples taken [earlier] in
   the pass, is the pass's set-up time: set-ups on both sides of the
   pass keep it from reading one fast or slow moment of the host. *)
let setup_repeats = 1

let time_setups f =
  List.init setup_repeats (fun _ ->
      let t0 = now () in
      let v = f () in
      (v, now () -. t0))

let setup_before f =
  let runs = time_setups f in
  (fst (List.nth runs (setup_repeats - 1)), List.map snd runs)

let setup_median f ~earlier =
  Stats.median (Array.of_list (earlier @ List.map snd (time_setups f)))

let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> nan
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> nan
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf
                (String.sub line 6 (String.length line - 6))
                " %f" (fun kb -> kb /. 1024.0)
            else scan ()
      in
      let v = scan () in
      close_in ic;
      v

type gc_mark = { words : float; majors : int }

let gc_mark () =
  let s = Gc.quick_stat () in
  {
    words = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words;
    majors = s.Gc.major_collections;
  }

let gc_per_op ~from ~ops =
  let m = gc_mark () in
  let ops = float_of_int (max 1 ops) in
  ( (m.words -. from.words) *. float_of_int (Sys.word_size / 8) /. 1048576.0
    /. ops,
    float_of_int (m.majors - from.majors) /. ops )

(* Failed-op bookkeeping: the count is exact, the printed list capped. *)
type failures = { mutable count : int; mutable lines : string list }

let failures () = { count = 0; lines = [] }

let fail f fmt =
  Printf.ksprintf
    (fun s ->
      f.count <- f.count + 1;
      if f.count <= 20 then f.lines <- s :: f.lines)
    fmt

let rel_diff a b =
  Float.abs (a -. b)
  /. Float.max 1e-300 (Float.max (Float.abs a) (Float.abs b))

(* {1 Passes}

   A run makes several passes over the same inputs (each workload sets
   how many), each from a cold start — fresh set-up, empty solve cache
   — one after the other, so the passes of an op lie seconds apart.
   [combine] takes each op's fastest pass as its latency, and the
   fastest pass's set-up time as the run's.  The host's other tenants
   only ever slow the process: by up to half, for stretches of up to
   tens of seconds, with short fast moments in between.  A pass reads
   the program plus whatever the host did meanwhile; the fastest of
   many passes reads the program.  Throughput and percentiles are taken
   over these per-op minima, which keeps them from following the host's
   load from run to run and hour to hour. *)
let combine (runs : outcome list) =
  let first = List.hd runs in
  let last = List.nth runs (List.length runs - 1) in
  let latencies =
    Array.mapi
      (fun k l0 -> List.fold_left (fun m o -> Float.min m o.latencies.(k)) l0 runs)
      first.latencies
  in
  (* The passes run the same deterministic work, so they must agree. *)
  let differing =
    List.length
      (List.filter
         (fun o ->
           o.counts <> first.counts || o.labels <> first.labels
           || o.populations <> first.populations)
         runs)
  in
  let failures = List.concat_map (fun o -> o.failures) runs in
  let sum f = List.fold_left (fun n o -> n + f o) 0 runs in
  {
    first with
    attempted = sum (fun o -> o.attempted);
    failed = sum (fun o -> o.failed) + differing;
    failures =
      (if differing = 0 then failures
       else
         failures
         @ [ Printf.sprintf "%d passes printed other counts than the first" differing ]);
    setup_s = List.fold_left (fun m o -> Float.min m o.setup_s) first.setup_s runs;
    wall_s = Array.fold_left ( +. ) 0.0 latencies;
    latencies;
    peak_rss_mb = List.fold_left (fun m o -> Float.max m o.peak_rss_mb) 0.0 runs;
    gc_alloc_mb_per_op = last.gc_alloc_mb_per_op;
    gc_major_per_op = last.gc_major_per_op;
    layers = last.layers;
  }

(* {1 Tracing}

   The traced pass activates a registry, so the program's own probe
   counters and timers report, and wraps a [Dpm_obs.Span] around every
   call the benchmark makes into a layer.  Replays — the same inputs
   pushed again through the layer functions a front door hides — run
   with the registry detached, so program counters count the front
   door's work only, and are timed with the benchmark's own clock. *)

let replay f =
  let active = Dpm_obs.Probe.current () in
  Dpm_obs.Probe.set_active None;
  let t0 = now () in
  Fun.protect
    ~finally:(fun () -> Dpm_obs.Probe.set_active active)
    (fun () ->
      let v = f () in
      (v, now () -. t0))

(* A span costs nothing when no registry is active, so the untraced
   pass runs the same op code with its spans inert. *)
let span = Dpm_obs.Span.with_

let observe ~traced reg f =
  if traced then Dpm_obs.Probe.with_active reg f else f ()

(* What a solve spends on fingerprints: the cache key and the
   provenance hash, both over the full model. *)
let fingerprint model =
  ignore (Dpm_cache.Fingerprint.key model : string);
  ignore (Dpm_cache.Fingerprint.model_hash model : int64)

let counter reg name =
  match Dpm_obs.Metrics.find reg name with
  | Some (Dpm_obs.Metrics.Counter_value n) -> float_of_int n
  | _ -> 0.0

let gauge reg name =
  match Dpm_obs.Metrics.find reg name with
  | Some (Dpm_obs.Metrics.Gauge_value v) -> v
  | _ -> 0.0

let timer reg name =
  match Dpm_obs.Metrics.find reg name with
  | Some (Dpm_obs.Metrics.Timer_value { seconds; _ }) -> seconds
  | _ -> 0.0

let ratio num den = if den = 0.0 then 0.0 else num /. den

(* The solver-side layers every workload reads the same way. *)
let solver_layers reg =
  (* [sparse_evals] counts accepted sparse evaluations, [sparse_fallbacks]
     the rejected ones; together they are the attempts. *)
  let evals = counter reg "policy_iteration.sparse_evals" in
  let fallbacks = counter reg "policy_iteration.sparse_fallbacks" in
  let hits = counter reg "cache.hits" and misses = counter reg "cache.misses" in
  [
    ("validate.s", timer reg "robust.validate_seconds");
    ("cache.hits", hits);
    ("cache.misses", misses);
    ("cache.evictions", counter reg "cache.evictions");
    ("cache.hit_ratio", ratio hits (hits +. misses));
    ("pi.eval_s", timer reg "policy_iteration.eval_time_seconds");
    ("pi.improve_s", timer reg "policy_iteration.improve_time_seconds");
    ("pi.iterations", counter reg "policy_iteration.iterations");
    ("pi.changed_states", counter reg "policy_iteration.changed_states");
    ("pi.sparse_evals", evals);
    ("pi.sparse_fallbacks", fallbacks);
    ("pi.sparse_accept_ratio", ratio evals (evals +. fallbacks));
    ("pi.robust_retries", counter reg "policy_iteration.robust_retries");
    ("pi.tikhonov_rungs", counter reg "policy_iteration.tikhonov_rungs");
    ("linalg.lu_factorizations", counter reg "lu.factorizations");
    ("linalg.lu_solves", counter reg "lu.solves");
    ("linalg.iterative_sweeps", counter reg "iterative.sweeps");
    ("linalg.operator_sweeps", counter reg "operator.sweeps");
  ]

(* Labels in cost order with their counts, zeros kept so the printed
   line always has the same fields. *)
let tally ~order labels =
  List.map
    (fun name ->
      ( name,
        Array.fold_left (fun n l -> if l = name then n + 1 else n) 0 labels ))
    order

let counts_line title tallies =
  Printf.sprintf "%s: %s" title
    (String.concat " "
       (List.map (fun (name, c) -> Printf.sprintf "%s=%d" name c) tallies))

(* {1 The contract}

   BENCHMARK.json, at the checkout root, names the workloads, the
   metrics with their units, and the run length; the report follows
   it rather than a copy of it. *)

type contract = {
  workloads : string list;
  end_to_end : (string * string) list;  (** name, unit *)
  per_layer : (string * string) list;
  run_seconds : int;
}

let contract ?(path = "BENCHMARK.json") () =
  let module J = Dpm_trace.Json in
  let text =
    try In_channel.with_open_bin path In_channel.input_all
    with Sys_error e -> failwith e
  in
  let json = match J.parse text with Ok j -> j | Error e -> failwith e in
  let bad what = failwith (Printf.sprintf "%s: bad or missing %s" path what) in
  let list key =
    match J.member key json with Some (J.Arr l) -> l | _ -> bad key
  in
  let field key m =
    match Option.bind (J.member key m) J.to_str with
    | Some s -> s
    | None -> bad key
  in
  let pairs key = List.map (fun m -> (field "name" m, field "unit" m)) (list key) in
  {
    workloads = List.map (field "name") (list "workloads");
    end_to_end = pairs "end_to_end";
    per_layer = pairs "per_layer";
    run_seconds =
      (match Option.bind (J.member "run_seconds" json) J.to_int with
      | Some n -> n
      | None -> bad "run_seconds");
  }
