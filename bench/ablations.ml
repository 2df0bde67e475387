(* Ablations for the design decisions called out in DESIGN.md. *)

open Dpm_core
open Dpm_ctmc
open Dpm_linalg

let line = String.make 78 '-'

let header title = Printf.printf "\n%s\n%s\n%s\n" line title line

let time_it f =
  let start = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. start)

(* Grid rows are independent; compute them on the Dpm_par pool and
   print in order.  At the default domain count (1) this is exactly
   the old sequential loop, so the per-row timings stay exact;
   opting in with --domains/DPM_DOMAINS trades per-row timing
   fidelity (rows then share cores) for wall-clock throughput. *)
let grid_rows f xs = Dpm_par.parallel_map_list f xs

(* ------------------------------------------------------------------ *)
(* Steady-state solver comparison on the closed-loop paper chain at
   growing queue capacities: classified banded GTH vs LU. *)

let solvers () =
  header
    "ABL1  Steady-state solvers: classify+GTH (solve) vs LU\n\
     (policy-induced chains have transient states, so raw GTH is not\n\
     applicable; 'solve' isolates the closed class first)";
  Printf.printf "%6s %6s | %10s %10s | %12s\n" "Q" "|X|" "t_solve(ms)"
    "t_lu(ms)" "solve-lu";
  grid_rows
    (fun q ->
      let sys =
        Sys_model.create
          ~sp:(Paper_instance.service_provider ())
          ~queue_capacity:q ~arrival_rate:(1.0 /. 6.0) ()
      in
      let g = Sys_model.generator_of_actions sys ~actions:(Policies.n_policy sys ~n:(max 1 (q / 2))) in
      let p_solve, t_solve = time_it (fun () -> Steady_state.solve g) in
      let p_lu, t_lu = time_it (fun () -> Steady_state.lu_solve g) in
      (q, Sys_model.num_states sys, t_solve, t_lu, Vec.norm_inf (Vec.sub p_solve p_lu)))
    [ 5; 10; 20; 40; 80 ]
  |> List.iter (fun (q, n, t_solve, t_lu, diff) ->
         Printf.printf "%6d %6d | %10.2f %10.2f | %12.2e\n" q n (1e3 *. t_solve)
           (1e3 *. t_lu) diff)

(* ------------------------------------------------------------------ *)
(* The Section III Kronecker formula vs the direct enumerative
   builder. *)

let builders () =
  header "ABL2  SYS generator: Section III Kronecker formula vs direct builder";
  Printf.printf "%6s %8s | %12s %12s | %12s\n" "Q" "action" "t_direct(ms)"
    "t_kron(ms)" "max |diff|";
  List.iter
    (fun q ->
      let sys =
        Sys_model.create
          ~sp:(Paper_instance.service_provider ())
          ~queue_capacity:q ~arrival_rate:(1.0 /. 6.0) ()
      in
      List.iter
        (fun action ->
          let direct, t_d = time_it (fun () -> Sys_model.uniform_generator sys ~action) in
          let kron, t_k =
            time_it (fun () -> Sys_model.tensor_generator sys ~action)
          in
          Printf.printf "%6d %8d | %12.3f %12.3f | %12.2e\n" q action
            (1e3 *. t_d) (1e3 *. t_k)
            (Matrix.max_abs (Matrix.sub direct kron)))
        [ 0; 2 ])
    [ 5; 20; 50 ]

(* ------------------------------------------------------------------ *)
(* Policy iteration vs relative value iteration. *)

let pi_vs_vi () =
  header
    "ABL3  Policy iteration vs relative value iteration\n\
     (the big-M self-switch rate makes the uniformized chain stiff:\n\
     per-sweep contraction is O(rates/M), so VI stalls at M = 1e6 while\n\
     PI is unaffected -- the finding that motivates the paper's choice\n\
     of policy iteration.  At M = 1e3 VI converges and agrees.)";
  Printf.printf "%8s %10s | %8s %12s | %9s %12s | %8s\n" "w" "M" "PI iters"
    "PI gain" "VI iters" "VI gain-mid" "agree";
  List.iter
    (fun m_rate ->
      List.iter
        (fun w ->
          let sys =
            Sys_model.create ~self_switch_rate:m_rate
              ~sp:(Paper_instance.service_provider ())
              ~queue_capacity:5 ~arrival_rate:(1.0 /. 6.0) ()
          in
          let m = Sys_model.to_ctmdp sys ~weight:w in
          let pi = Dpm_ctmdp.Policy_iteration.solve m in
          let vi = Dpm_ctmdp.Value_iteration.solve ~tol:1e-10 ~max_iter:200_000 m in
          let mid =
            0.5
            *. (vi.Dpm_ctmdp.Value_iteration.gain_lower
               +. vi.Dpm_ctmdp.Value_iteration.gain_upper)
          in
          Printf.printf "%8g %10g | %8d %12.6f | %9d %12.6f | %8s\n" w m_rate
            pi.Dpm_ctmdp.Policy_iteration.iterations
            pi.Dpm_ctmdp.Policy_iteration.gain
            vi.Dpm_ctmdp.Value_iteration.iterations mid
            (if
               vi.Dpm_ctmdp.Value_iteration.converged
               && Float.abs (mid -. pi.Dpm_ctmdp.Policy_iteration.gain) < 1e-4
             then "yes"
             else if not vi.Dpm_ctmdp.Value_iteration.converged then "VI-stall"
             else "NO"))
        [ 0.5; 5.0 ])
    [ 1e3; 1e6 ]

(* ------------------------------------------------------------------ *)
(* Sensitivity to the big-M self-switch rate (DESIGN.md decision 1). *)

let self_switch () =
  header "ABL4  Big-M self-switch rate sensitivity (greedy policy metrics)";
  Printf.printf "%12s | %12s %14s\n" "M (1/s)" "power (W)" "waiting (req)";
  List.iter
    (fun m_rate ->
      let sys =
        Sys_model.create ~self_switch_rate:m_rate
          ~sp:(Paper_instance.service_provider ())
          ~queue_capacity:5 ~arrival_rate:(1.0 /. 6.0) ()
      in
      let m = Analytic.of_actions sys ~actions:(Policies.greedy sys) in
      Printf.printf "%12g | %12.6f %14.6f\n" m_rate m.Analytic.power
        m.Analytic.avg_waiting_requests)
    [ 1e2; 1e3; 1e4; 1e6; 1e8 ]

(* ------------------------------------------------------------------ *)
(* Queue-capacity scaling of the full optimization pipeline. *)

let queue_scaling () =
  header "ABL5  Optimization cost vs queue capacity";
  Printf.printf "%6s %6s | %10s %8s | %12s\n" "Q" "|X|" "t_solve(ms)" "iters"
    "gain";
  grid_rows
    (fun q ->
      let sys =
        Sys_model.create
          ~sp:(Paper_instance.service_provider ())
          ~queue_capacity:q ~arrival_rate:(1.0 /. 6.0) ()
      in
      (* Capacity 0: a bench section earlier in the run may already
         have solved the small instances, and a cache hit would time
         the lookup instead of the solve. *)
      let sol, t =
        Dpm_cache.Solve_cache.with_capacity 0 (fun () ->
            time_it (fun () -> Optimize.solve ~weight:1.0 sys))
      in
      (q, Sys_model.num_states sys, t, sol.Optimize.iterations, sol.Optimize.gain))
    [ 5; 10; 20; 40; 80; 120 ]
  |> List.iter (fun (q, n, t, iters, gain) ->
         Printf.printf "%6d %6d | %10.1f %8d | %12.6f\n" q n (1e3 *. t) iters gain)

(* ------------------------------------------------------------------ *)
(* The paper, Section I: "A policy iteration algorithm is used to
   solve the policy optimization problem.  The new algorithm tends to
   be more efficient than the linear programming method."  Measure
   exactly that: policy iteration vs the occupation-measure LP
   (revised simplex) on growing instances of the paper's model. *)

let pi_vs_lp () =
  header
    "ABL6  Policy iteration vs linear programming (the paper's efficiency claim)";
  Printf.printf "%6s %6s %8s | %10s %10s %8s | %12s\n" "Q" "|X|" "LP vars"
    "t_PI(ms)" "t_LP(ms)" "speedup" "gain diff";
  grid_rows
    (fun q ->
      let sys =
        Sys_model.create
          ~sp:(Paper_instance.service_provider ())
          ~queue_capacity:q ~arrival_rate:(1.0 /. 6.0) ()
      in
      let m = Sys_model.to_ctmdp sys ~weight:1.0 in
      let pi, t_pi = time_it (fun () -> Dpm_ctmdp.Policy_iteration.solve m) in
      let lp, t_lp = time_it (fun () -> Dpm_ctmdp.Lp_solver.solve m) in
      (q, Sys_model.num_states sys, Dpm_ctmdp.Model.total_choices m, t_pi, t_lp,
       Float.abs
         (pi.Dpm_ctmdp.Policy_iteration.gain -. lp.Dpm_ctmdp.Lp_solver.gain)))
    [ 3; 5; 8; 12; 16; 20 ]
  |> List.iter (fun (q, n, vars, t_pi, t_lp, diff) ->
         Printf.printf "%6d %6d %8d | %10.2f %10.2f %7.1fx | %12.2e\n" q n vars
           (1e3 *. t_pi) (1e3 *. t_lp) (t_lp /. t_pi) diff)

let all () =
  solvers ();
  builders ();
  pi_vs_vi ();
  self_switch ();
  queue_scaling ();
  pi_vs_lp ()
