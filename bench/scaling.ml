(* Multicore scaling of the two embarrassingly-parallel workloads:
   replicated simulation and rate-sweep re-optimization.  Each
   workload runs at several domain counts; besides wall clock and
   throughput we check the results are bit-identical across counts —
   the Dpm_par determinism contract, measured rather than assumed.

   Gauges land in bench_metrics.json under bench.scaling.*:
     bench.scaling.<workload>.d<k>.seconds
     bench.scaling.<workload>.d<k>.throughput   (items/s)
     bench.scaling.<workload>.d<k>.speedup      (vs d=1)
     bench.scaling.<workload>.identical         (1 = bit-identical)

   On a single-core host the interesting number is the overhead: the
   d>1 rows then measure what the pool costs when it cannot help. *)

open Dpm_core
open Dpm_sim

let line = String.make 78 '-'

let header title = Printf.printf "\n%s\n%s\n%s\n" line title line

let time_it f =
  let start = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. start)

let domain_counts =
  (* 1, 2, 4, ... up to one step past the hardware, so the saturation
     knee is visible in the recorded curve. *)
  let rec grow d acc =
    if d >= 2 * Dpm_par.recommended_domains () then List.rev acc
    else grow (2 * d) (d :: acc)
  in
  grow 1 [] @ [ 2 * Dpm_par.recommended_domains () ]

let run_workload ~name ~items f =
  Printf.printf "%-14s %8s | %10s %14s %9s %10s\n" name "domains" "t (s)"
    "items/s" "speedup" "identical";
  let baseline = ref None in
  let reference = ref None in
  let all_identical = ref true in
  List.iter
    (fun d ->
      let v, t = time_it (fun () -> f d) in
      let t1 = match !baseline with None -> baseline := Some t; t | Some t1 -> t1 in
      let identical =
        match !reference with
        | None ->
            reference := Some v;
            true
        | Some r -> v = r
      in
      if not identical then all_identical := false;
      let throughput = float_of_int items /. t in
      let tag k = Printf.sprintf "bench.scaling.%s.d%d.%s" name d k in
      Dpm_obs.Probe.set (tag "seconds") t;
      Dpm_obs.Probe.set (tag "throughput") throughput;
      Dpm_obs.Probe.set (tag "speedup") (t1 /. t);
      Printf.printf "%-14s %8d | %10.3f %14.1f %8.2fx %10s\n" "" d t throughput
        (t1 /. t)
        (if identical then "yes" else "NO"))
    domain_counts;
  Dpm_obs.Probe.set
    (Printf.sprintf "bench.scaling.%s.identical" name)
    (if !all_identical then 1.0 else 0.0);
  if not !all_identical then
    Printf.printf "FAIL: %s results differ across domain counts\n" name;
  !all_identical

(* --- stationary solve ladder --------------------------------------- *)

(* State-space scaling of the stationary solve: the paper SP under the
   uniform active command at doubling queue capacities, solved by
   Steady_state.solve (classification, then banded GTH in reverse
   Cuthill-McKee order).  The climb stops at the first solve over the
   per-solve budget, or at the capacity cap, which bounds the memory
   the materialized generator takes.  Every rung is checked — p >= 0,
   sum p = 1 and a balance residual |pG|_inf of at most 1e-9 times the
   largest exit rate — and a failed check fails the section's gate.

   Gauges land in bench_metrics.json under bench.scaling.kron.*:
     bench.scaling.kron.q<Q>.seconds
     bench.scaling.kron.q<Q>.residual   (|pG|_inf / max exit rate)
     bench.scaling.kron.max_q           (deepest Q within budget) *)

let budget_s = 1.0
let base_q = 250
let hard_cap_q = 1 lsl 15 (* 131k states *)

let sys_at q =
  Sys_model.create
    ~sp:(Paper_instance.service_provider ())
    ~queue_capacity:q ~arrival_rate:Paper_instance.arrival_rate ()

let kron () =
  header
    (Printf.sprintf
       "SCALING  stationary solve (classify + banded GTH) of the paper SP\n\
        under the uniform active command, doubling queue capacity from %d\n\
        to at most %d, %.1f s budget per solve" base_q hard_cap_q budget_s);
  Printf.printf "%8s %10s | %12s %14s\n" "Q" "states" "t (s)" "residual/rate";
  let rec climb q max_q =
    let sys = sys_at q in
    let g =
      Sys_model.generator_of_actions sys ~actions:(fun _ -> Paper_instance.active)
    in
    let p, t = time_it (fun () -> Dpm_ctmc.Steady_state.solve g) in
    let residual =
      Dpm_ctmc.Steady_state.residual g p
      /. Dpm_ctmc.Generator.uniformization_rate g
    in
    let ok =
      Array.for_all (fun x -> x >= 0.0) p
      && Float.abs (Dpm_linalg.Vec.sum p -. 1.0) <= 1e-9
      && residual <= 1e-9
    in
    let tag k = Printf.sprintf "bench.scaling.kron.q%d.%s" q k in
    Dpm_obs.Probe.set (tag "seconds") t;
    Dpm_obs.Probe.set (tag "residual") residual;
    Printf.printf "%8d %10d | %12.4f %14.2e\n" q (Sys_model.num_states sys) t
      residual;
    let max_q = if t <= budget_s && ok then q else max_q in
    if not ok then Printf.printf "FAIL: stationary solve at Q=%d\n" q;
    if ok && t <= budget_s && 2 * q <= hard_cap_q then climb (2 * q) max_q
    else (max_q, ok)
  in
  let max_q, ok = climb base_q 0 in
  Dpm_obs.Probe.set "bench.scaling.kron.max_q" (float_of_int max_q);
  Printf.printf "\nmax Q within %.1f s: %d\n" budget_s max_q;
  ok

let all () =
  header
    (Printf.sprintf
       "SCALING  Dpm_par domains vs throughput (%d hardware core(s))\n\
        replicate: 20 simulation replications x 5,000 requests\n\
        rate_sweep: 16-point arrival-rate grid, one CTMDP solve per point"
       (Dpm_par.recommended_domains ()));
  let sys = Paper_instance.system () in
  let replications = 20 in
  let replicate_ok =
    run_workload ~name:"replicate" ~items:replications (fun d ->
        Power_sim.replicate ~n:replications ~seed:7L ~domains:d ~sys
          ~workload:(fun () ->
            Workload.poisson ~rate:(Sys_model.arrival_rate sys))
          ~controller:(fun () -> Controller.greedy sys)
          ~stop:(Power_sim.Requests 5_000) ())
  in
  let rates =
    List.init 16 (fun k -> 1.0 /. (3.0 +. (float_of_int k *. (5.0 /. 15.0))))
  in
  let sol = Optimize.solve ~weight:1.0 sys in
  (* Cache capacity 0 for the timed region: with memoization on, every
     domain count after the first would be served from the cache and
     the scaling curve would measure nothing. *)
  let rate_sweep_ok =
    run_workload ~name:"rate_sweep" ~items:(List.length rates) (fun d ->
        Dpm_cache.Solve_cache.with_capacity 0 (fun () ->
            List.map
              (fun (p : Sensitivity.point) ->
                (p.Sensitivity.rate, p.Sensitivity.objective, p.Sensitivity.regret))
              (Sensitivity.rate_sweep ~domains:d sys
                 ~actions:sol.Optimize.actions ~weight:1.0 ~rates)))
  in
  replicate_ok && rate_sweep_ok
