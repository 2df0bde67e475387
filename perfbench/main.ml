(* The benchmark's one command:

     main.exe --workload W --seed N --seconds S --trace 0|1

   prints population counts, the percentiles with their ranks, the
   correctness verdict, and as its last line one JSON object.  A run is
   several passes over the same inputs (four to eight, as the workload
   sets), and each op's latency is its fastest pass (see
   [Common.combine]).  With --trace 0 the object holds the end-to-end
   metrics; with --trace 1 the run is made twice — untraced, then
   traced — and it holds the per-layer metrics; the names and units are
   BENCHMARK.json's, read from the working directory.  The verdict is
   correct when every op passed its check, every pass printed the same
   counts, and p50 and the tail each lie inside one population of ops.
   Exits 1 when it is not, 2 on bad arguments or without
   BENCHMARK.json. *)

open Perfbench
module C = Common

(* Written under the build directory the wrapper script builds in. *)
let scratch_dir = Filename.concat "_build" "perfbench-scratch"

let run_workload ~traced ~seed ~seconds name =
  match name with
  | "design-sweep" ->
      Design_sweep.run ~traced ~seed ~ops:(Design_sweep.ops_for ~seconds) ()
  | "serve-day" ->
      if not (Sys.file_exists scratch_dir) then Sys.mkdir scratch_dir 0o755;
      Serve_day.run ~traced ~seed
        ~ops:(Serve_day.ops_for ~seconds)
        ~checkpoint:(Filename.concat scratch_dir (Printf.sprintf "serve-%d.ckpt" seed))
        ()
  | "fleet-day" -> Fleet_day.run ~traced ~seed ~ops:(Fleet_day.ops_for ~seconds) ()
  | _ -> assert false

let passes = function
  | "design-sweep" -> Design_sweep.passes
  | "serve-day" -> Serve_day.passes
  | "fleet-day" -> Fleet_day.passes
  | _ -> assert false

(* Each pass prints its own wall-clock throughput and p50, the figures
   a single pass would have reported. *)
let run_passes ~traced ~seed ~seconds name =
  C.combine
    (List.init (passes name) (fun i ->
         let o = run_workload ~traced ~seed ~seconds name in
         Printf.printf "  pass %d: %d ops in %.3fs, %.4f ops/s, p50 %.4f ms\n%!"
           (i + 1) o.C.attempted o.C.wall_s
           (float_of_int o.C.attempted /. o.C.wall_s)
           (1000.0 *. Stats.median o.C.latencies);
         o))

let json_metric (name, value, unit_) =
  Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
    (if Float.is_finite value then Printf.sprintf "%.17g" value else "null")
    unit_

let report ~correct ~attempted ~failed metrics =
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", " (List.map json_metric metrics))

(* Prints the outcome; true when p50 and the tail both lie inside one
   population. *)
let print_outcome name (o : C.outcome) =
  Printf.printf "%s: attempted=%d failed=%d setup=%.6fs op time=%.3fs\n" name
    o.C.attempted o.C.failed o.C.setup_s o.C.wall_s;
  List.iter (Printf.printf "  %s\n") o.C.counts;
  let n = Array.length o.C.latencies in
  let tail = Stats.tail o.C.latencies in
  let placement what rank =
    let p = Stats.place ~counts:o.C.populations ~rank in
    Printf.printf
      "  %s rank %d/%d: population %s, %d ranks above its lower boundary, %d \
       below its upper; %s (purity %.2f)\n"
      what rank n p.Stats.population p.Stats.below p.Stats.above
      (if p.Stats.inside then "inside" else "AT A BOUNDARY")
      (Stats.purity ~latencies:o.C.latencies ~labels:o.C.labels ~rank
         ~population:p.Stats.population);
    p.Stats.inside
  in
  Printf.printf "  op_p50_ms=%.4f  op_tail_ms=%.4f at p%.2f (n=%d, %d beyond)\n"
    (1000.0 *. Stats.median o.C.latencies)
    (1000.0 *. tail.Stats.value) tail.Stats.percentile n tail.Stats.beyond;
  let p50 = placement "p50" (Stats.median_rank n) in
  let tail = placement "tail" tail.Stats.rank in
  List.iter (Printf.printf "  FAILED %s\n") o.C.failures;
  p50 && tail

(* Ops per second of op time, over one pass's ops. *)
let ops_per_s (o : C.outcome) =
  float_of_int (Array.length o.C.latencies) /. o.C.wall_s

let end_to_end contract (o : C.outcome) =
  let value = function
    | "setup_s" -> o.C.setup_s
    | "ops_per_s" -> ops_per_s o
    | "op_p50_ms" -> 1000.0 *. Stats.median o.C.latencies
    | "op_tail_ms" -> 1000.0 *. (Stats.tail o.C.latencies).Stats.value
    | "peak_rss_mb" -> o.C.peak_rss_mb
    | name -> invalid_arg name
  in
  List.map (fun (name, unit_) -> (name, value name, unit_)) contract.C.end_to_end

let usage (contract : C.contract) =
  Printf.eprintf "usage: main.exe --workload (%s) --seed N --seconds S --trace (0|1)\n"
    (String.concat "|" contract.C.workloads);
  exit 2

let () =
  let contract =
    try C.contract ()
    with Failure e ->
      prerr_endline ("perfbench: " ^ e);
      exit 2
  in
  let usage () = usage contract in
  let workload = ref "" and seed = ref None and seconds = ref None in
  let trace = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        workload := w;
        parse rest
    | "--seed" :: s :: rest ->
        seed := int_of_string_opt s;
        parse rest
    | "--seconds" :: s :: rest ->
        seconds := int_of_string_opt s;
        parse rest
    | "--trace" :: t :: rest ->
        trace := (match t with "0" -> Some false | "1" -> Some true | _ -> None);
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seed, seconds, traced =
    match (!seed, !seconds, !trace) with
    | Some s, Some t, Some tr when List.mem !workload contract.C.workloads && t >= 1 ->
        (s, t, tr)
    | _ -> usage ()
  in
  (* One domain and the default cache size whatever DPM_DOMAINS and
     DPM_CACHE say; serve-day passes its engine an empty fault plan, so
     DPM_FAULTS is not read either. *)
  Dpm_par.set_default_domains 1;
  Dpm_cache.Solve_cache.set_capacity 512;
  Printf.printf "perfbench %s seed=%d seconds=%d trace=%d\n%!" !workload seed
    seconds (if traced then 1 else 0);
  let untraced = run_passes ~traced:false ~seed ~seconds !workload in
  let inside = print_outcome "untraced" untraced in
  let outcomes, inside, metrics =
    if not traced then ([ untraced ], inside, end_to_end contract untraced)
    else begin
      let t = run_passes ~traced:true ~seed ~seconds !workload in
      let inside = print_outcome "traced" t && inside in
      let values =
        t.C.layers
        @ [
            ("gc.alloc_mb_per_op", untraced.C.gc_alloc_mb_per_op);
            ("gc.major_per_op", untraced.C.gc_major_per_op);
            ("trace.overhead_ratio", ops_per_s untraced /. ops_per_s t);
          ]
      in
      let metrics =
        List.map
          (fun (name, unit_) ->
            (name, Option.value (List.assoc_opt name values) ~default:0.0, unit_))
          contract.C.per_layer
      in
      List.iter
        (fun (name, v, u) -> Printf.printf "  layer %-26s %.9g %s\n" name v u)
        metrics;
      ([ untraced; t ], inside, metrics)
    end
  in
  let sum f = List.fold_left (fun n o -> n + f o) 0 outcomes in
  let attempted = sum (fun o -> o.C.attempted) in
  let failed = sum (fun o -> o.C.failed) in
  let correct = failed = 0 && inside in
  Printf.printf "verdict: %s\n"
    (if correct then "correct"
     else if failed > 0 then Printf.sprintf "%d ops failed their checks" failed
     else "p50 or the tail lies at a population boundary");
  report ~correct ~attempted ~failed metrics;
  exit (if correct then 0 else 1)
