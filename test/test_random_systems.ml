(* Whole-pipeline property tests over random devices: random service
   providers composed with random arrival rates and capacities must
   flow through model construction, optimization, analytics and
   simulation while preserving every structural invariant. *)

open Dpm_core
open Dpm_linalg

(* [min_modes]..4 modes with 1 + [extra_active] of them active, capped
   so that one stays inactive. *)
let sp_gen_of ~min_modes extra_active =
  QCheck2.Gen.(
    int_range min_modes 4 >>= fun n_modes ->
    extra_active >>= fun extra_active ->
    (* Keep at least one inactive mode: a server that can never power
       down has no deepest_sleep and is outside the DPM problem. *)
    let active_count = min (n_modes - 1) (1 + extra_active) in
    let cell = float_range 0.05 3.0 in
    list_repeat (n_modes * n_modes) cell >>= fun times ->
    list_repeat (n_modes * n_modes) (float_range 0.0 10.0) >>= fun energies ->
    list_repeat n_modes (float_range 0.5 5.0) >>= fun rates ->
    list_repeat n_modes (float_range 0.0 50.0) >>= fun powers ->
    let times = Array.of_list times and energies = Array.of_list energies in
    let rates = Array.of_list rates and powers = Array.of_list powers in
    return
      (Service_provider.create
         ~names:(Array.init n_modes (Printf.sprintf "m%d"))
         ~switch_time:
           (Array.init n_modes (fun i ->
                Array.init n_modes (fun j -> if i = j then 0.0 else times.((i * n_modes) + j))))
         ~service_rate:
           (Array.init n_modes (fun s -> if s < active_count then rates.(s) else 0.0))
         ~power:powers
         ~switch_energy:
           (Array.init n_modes (fun i ->
                Array.init n_modes (fun j ->
                    if i = j then 0.0 else energies.((i * n_modes) + j))))))

(* One active mode and occasionally a second. *)
let sp_gen = sp_gen_of ~min_modes:2 QCheck2.Gen.(int_range 0 1)

let sys_gen_of sp_gen =
  QCheck2.Gen.(
    sp_gen >>= fun sp ->
    int_range 1 5 >>= fun queue_capacity ->
    float_range 0.05 1.5 >>= fun arrival_rate ->
    return (Sys_model.create ~sp ~queue_capacity ~arrival_rate ()))

let sys_gen = sys_gen_of sp_gen

let prop_generator_invariants =
  Test_util.qtest ~count:80 "every valid policy's chain is a generator, unichain"
    sys_gen
    (fun sys ->
      (* Check the greedy policy (always expressible) and the optimal
         one. *)
      let policies =
        [
          Policies.actions_array sys (Policies.greedy sys);
          (Optimize.solve ~weight:1.0 sys).Optimize.actions;
        ]
      in
      List.for_all
        (fun actions ->
          let g =
            Sys_model.generator_of_actions sys ~actions:(fun x ->
                actions.(Sys_model.index sys x))
          in
          let rows_ok =
            Vec.norm_inf (Matrix.row_sums (Dpm_ctmc.Generator.to_matrix g)) < 1e-6
          in
          let unichain =
            match Dpm_ctmc.Structure.recurrent_classes g with
            | [ _ ] -> true
            | _ -> false
          in
          rows_ok && unichain)
        policies)

let prop_optimal_beats_greedy =
  Test_util.qtest ~count:60 "optimum never loses to greedy on its own objective"
    sys_gen
    (fun sys ->
      let w = 1.0 in
      let sol = Optimize.solve ~weight:w sys in
      let greedy = Analytic.of_actions sys ~actions:(Policies.greedy sys) in
      sol.Optimize.gain
      <= greedy.Analytic.power +. (w *. greedy.Analytic.avg_waiting_requests) +. 1e-6)

let prop_flow_conservation =
  Test_util.qtest ~count:60 "throughput equals accepted arrivals" sys_gen
    (fun sys ->
      let m = Analytic.of_actions sys ~actions:(Policies.greedy sys) in
      let accepted =
        Sys_model.arrival_rate sys *. (1.0 -. m.Analytic.loss_probability)
      in
      Float.abs (m.Analytic.throughput -. accepted)
      <= 1e-6 *. (1.0 +. accepted))

let prop_optimal_policy_valid =
  Test_util.qtest ~count:60 "optimal actions respect the constraints" sys_gen
    (fun sys ->
      let sol = Optimize.solve ~weight:0.3 sys in
      match
        Policies.check_valid sys (fun x -> sol.Optimize.actions.(Sys_model.index sys x))
      with
      | Ok () -> true
      | Error _ -> false)

let describe_sys sys =
  let sp = Sys_model.sp sys in
  let n = Service_provider.num_modes sp in
  Format.asprintf "lambda=%g Q=%d modes=[%s] chi=[%s]"
    (Sys_model.arrival_rate sys) (Sys_model.queue_capacity sys)
    (String.concat "; "
       (List.init n (fun s ->
            Printf.sprintf "%s mu=%g pow=%g" (Service_provider.name sp s)
              (Service_provider.service_rate sp s) (Service_provider.power sp s))))
    (String.concat "; "
       (List.concat
          (List.init n (fun i ->
               List.filter_map
                 (fun j ->
                   if i = j then None
                   else
                     Some
                       (Printf.sprintf "%d->%d t=%g e=%g" i j
                          (Service_provider.switch_time sp i j)
                          (Service_provider.switch_energy sp i j)))
                 (List.init n (fun j -> j))))))

let prop_sim_tracks_model =
  Test_util.qtest ~count:12 ~print:describe_sys
    "simulation tracks the analytic model" sys_gen
    (fun sys ->
      if Sys_model.queue_capacity sys < 2 then true
        (* At Q = 1 the transfer-boundary artifact (the model drops
           arrivals during a full transfer, the physical simulator
           accepts them — the case the paper skips "for brevity")
           dominates the metrics; it gets its own directional test in
           test_integration.ml. *)
      else begin
      let sol = Optimize.solve ~weight:1.0 sys in
      (* Average three replications: single runs on high-variance
         random systems (huge wake-up energies, near-saturation
         loads) are too noisy for a sharp bound. *)
      let runs =
        List.map
          (fun seed ->
            Dpm_sim.Power_sim.run ~seed ~sys
              ~workload:
                (Dpm_sim.Workload.poisson ~rate:(Sys_model.arrival_rate sys))
              ~controller:(Dpm_sim.Controller.of_solution sys sol)
              ~stop:(Dpm_sim.Power_sim.Requests 30_000)
              ())
          [ 17L; 18L; 19L ]
      in
      let avg f = Dpm_prob.Stat.mean (List.map f runs) in
      let m = sol.Optimize.metrics in
      (* Hybrid tolerance: 20% relative or a small absolute slack —
         overloaded systems expose the documented transfer-boundary
         acceptance difference between model and simulator. *)
      let close a b abs_slack =
        Float.abs (b -. a) <= Float.max (0.2 *. Float.abs a) abs_slack
      in
      close m.Analytic.power (avg (fun r -> r.Dpm_sim.Power_sim.avg_power)) 0.2
      && close m.Analytic.avg_waiting_requests
           (avg (fun r -> r.Dpm_sim.Power_sim.avg_waiting_requests))
           0.1
      end)

(* The Section III tensor formula, Sys_model.tensor_generator, gives
   the direct build bit for bit, for every action. *)
let operator_matches_direct sys =
  let ok = ref true in
  for a = 0 to Service_provider.num_modes (Sys_model.sp sys) - 1 do
    let direct = Sys_model.uniform_generator sys ~action:a in
    let kron = Sys_model.tensor_generator sys ~action:a in
    if not (Matrix.approx_equal ~tol:0.0 direct kron) then ok := false
  done;
  !ok

let prop_tensor_formula_single_active =
  Test_util.qtest ~count:40 "tensor formula agrees on random single-active SPs"
    (sys_gen_of (sp_gen_of ~min_modes:2 (QCheck2.Gen.return 0)))
    operator_matches_direct

let prop_operator_expands_to_direct_build =
  Test_util.qtest ~count:60 "lazy Kron operator matches the direct build with two active modes"
    (sys_gen_of (sp_gen_of ~min_modes:3 (QCheck2.Gen.return 1)))
    operator_matches_direct

let prop_iterative_evaluation_agrees =
  Test_util.qtest ~count:40 "iterative policy evaluation matches dense LU"
    sys_gen (fun sys ->
      let m = Sys_model.to_ctmdp sys ~weight:1.0 in
      let p =
        Dpm_ctmdp.Policy.of_actions m
          (Policies.actions_array sys (Policies.greedy sys))
      in
      let d = Dpm_ctmdp.Policy_iteration.evaluate_robust m p in
      let i = Dpm_ctmdp.Policy_iteration.evaluate_sparse m p in
      let gain_ok =
        Float.abs (d.Dpm_ctmdp.Policy_iteration.gain -. i.Dpm_ctmdp.Policy_iteration.gain)
        <= 1e-6 *. (1.0 +. Float.abs d.Dpm_ctmdp.Policy_iteration.gain)
      in
      let bias_ok =
        Vec.norm_inf
          (Vec.sub d.Dpm_ctmdp.Policy_iteration.bias
             i.Dpm_ctmdp.Policy_iteration.bias)
        <= 1e-6
           *. (1.0 +. Vec.norm_inf d.Dpm_ctmdp.Policy_iteration.bias)
      in
      gain_ok && bias_ok)

let suite =
  [
    prop_generator_invariants;
    prop_optimal_beats_greedy;
    prop_flow_conservation;
    prop_optimal_policy_valid;
    prop_sim_tracks_model;
    prop_tensor_formula_single_active;
    prop_operator_expands_to_direct_build;
    prop_iterative_evaluation_agrees;
  ]
