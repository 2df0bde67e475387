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

(* --- implicit operator vs materialized CSR ------------------------ *)

(* State-space scaling of the stationary solve: the same paper SP at
   growing queue capacities, solved through the materialized pipeline
   (generator_of_actions -> Generator.to_sparse -> CSR Gauss-Seidel)
   and through the lazy Kronecker operator (Sys_model.operator ->
   Operator.gauss_seidel_steady), both at the same tolerance.  Each
   path climbs a doubling capacity ladder until one solve exceeds the
   per-solve time budget; the headline series is how much deeper the
   implicit path gets on the same budget.

   Gauges land in bench_metrics.json under bench.scaling.kron.*:
     bench.scaling.kron.q<Q>.<path>.seconds
     bench.scaling.kron.q<Q>.<path>.iterations
     bench.scaling.kron.q<Q>.speedup          (sparse time / implicit time)
     bench.scaling.kron.q<Q>.nnz              (CSR nonzeros, materialized)
     bench.scaling.kron.q<Q>.stored_floats    (operator factor storage)
     bench.scaling.kron.max_q.<path>          (deepest Q within budget)
     bench.scaling.kron.capacity_speedup      (max_q implicit / sparse)
     bench.scaling.kron.agreement_norm_inf    (pi difference at base Q) *)

let budget_s = 1.0
let base_q = 250
let hard_cap_q = 1 lsl 21 (* runaway backstop, ~8.4M states *)

let sys_at q =
  Sys_model.create
    ~sp:(Paper_instance.service_provider ())
    ~queue_capacity:q ~arrival_rate:Paper_instance.arrival_rate ()

let solve_sparse sys =
  let g =
    Sys_model.generator_of_actions sys ~actions:(fun _ -> Paper_instance.active)
  in
  Dpm_linalg.Iterative.gauss_seidel_steady (Dpm_ctmc.Generator.to_sparse g)

let solve_implicit sys =
  Dpm_ctmc.Steady_state.implicit
    ~init:(Sys_model.stationary_hint sys ~action:Paper_instance.active)
    ~order:(Sys_model.sweep_order sys)
    (Sys_model.operator sys ~action:Paper_instance.active)

(* Climb the doubling ladder; returns (max_q, per-Q times).  A rung is
   recorded even when it blows the budget (it is the evidence), but
   the climb stops there. *)
let climb name solve =
  let rec go q acc =
    let sys = sys_at q in
    let r, t = time_it (fun () -> solve sys) in
    let times =
      (q, t, r.Dpm_linalg.Iterative.iterations, r.Dpm_linalg.Iterative.converged)
      :: acc
    in
    if t <= budget_s && 2 * q <= hard_cap_q then go (2 * q) times
    else (q, List.rev times)
  in
  let _, times = go base_q [] in
  let max_q =
    (* The deepest rung *within* budget; the over-budget probe rung
       does not count toward capacity. *)
    List.fold_left
      (fun best (q, t, _, converged) ->
        if t <= budget_s && converged then max best q else best)
      0 times
  in
  Dpm_obs.Probe.set (Printf.sprintf "bench.scaling.kron.max_q.%s" name)
    (float_of_int max_q);
  (max_q, times)

let kron () =
  header
    (Printf.sprintf
       "SCALING  implicit Kronecker operator vs materialized CSR\n\
        stationary solve of the paper SP under the uniform active \
        command,\n\
        doubling queue capacity from %d, %.1f s budget per solve" base_q
       budget_s);
  (* Cross-check once at the base capacity before timing anything. *)
  let sys0 = sys_at base_q in
  let p_sparse = (solve_sparse sys0).Dpm_linalg.Iterative.solution in
  let p_implicit = (solve_implicit sys0).Dpm_linalg.Iterative.solution in
  let agreement =
    Dpm_linalg.Vec.norm_inf (Dpm_linalg.Vec.sub p_sparse p_implicit)
  in
  Dpm_obs.Probe.set "bench.scaling.kron.agreement_norm_inf" agreement;
  Printf.printf "agreement at Q=%d: |pi_sparse - pi_implicit|_inf = %.3g\n\n"
    base_q agreement;
  let max_sparse, sparse_times = climb "sparse" solve_sparse in
  let max_implicit, implicit_times = climb "implicit" solve_implicit in
  Printf.printf "%-10s %8s | %12s %12s %7s %9s %12s %14s\n" "path" "Q" "states"
    "t (s)" "iters" "speedup" "csr nnz" "stored floats";
  let sparse_at q =
    List.find_map
      (fun (q', t, _, _) -> if q' = q then Some t else None)
      sparse_times
  in
  let report name times =
    List.iter
      (fun (q, t, iters, converged) ->
        let sys = sys_at q in
        let op = Sys_model.operator sys ~action:Paper_instance.active in
        let stored = Dpm_linalg.Operator.stored_floats op in
        let nnz = Dpm_linalg.Operator.materialized_nnz op in
        let tag k = Printf.sprintf "bench.scaling.kron.q%d.%s" q k in
        Dpm_obs.Probe.set (tag (name ^ ".seconds")) t;
        Dpm_obs.Probe.set (tag (name ^ ".iterations")) (float_of_int iters);
        Dpm_obs.Probe.set (tag "nnz") (float_of_int nnz);
        Dpm_obs.Probe.set (tag "stored_floats") (float_of_int stored);
        let speedup =
          if name = "implicit" then
            match sparse_at q with
            | Some ts when t > 0.0 ->
                let s = ts /. t in
                Dpm_obs.Probe.set (tag "speedup") s;
                Printf.sprintf "%8.2fx" s
            | _ -> Printf.sprintf "%9s" "-"
          else Printf.sprintf "%9s" "-"
        in
        Printf.printf "%-10s %8d | %12d %12.3f %7d %s %12d %14d%s\n" name q
          (Sys_model.num_states sys) t iters speedup nnz stored
          (if converged then "" else "  (no convergence)"))
      times
  in
  report "sparse" sparse_times;
  report "implicit" implicit_times;
  let capacity_speedup =
    if max_sparse > 0 then float_of_int max_implicit /. float_of_int max_sparse
    else 0.0
  in
  Dpm_obs.Probe.set "bench.scaling.kron.capacity_speedup" capacity_speedup;
  Printf.printf
    "\nmax Q within %.1f s: sparse %d, implicit %d  (capacity speedup %.1fx)\n"
    budget_s max_sparse max_implicit capacity_speedup

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
