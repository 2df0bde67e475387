(* Benchmark harness.

   Usage:  dune exec bench/main.exe [--domains N] [sections...]

   Sections: fig4 modelcheck tab1 fig5 npolicy2 ablations extensions
   scaling kron cache adapt fleet scenarios perf all
   (default: all).  The experiment sections regenerate the paper's
   tables/figures (see EXPERIMENTS.md); the scaling section measures
   Dpm_par speedup at several domain counts; the perf section runs one
   Bechamel micro-benchmark per experiment's computational kernel.
   [--domains N] (or DPM_DOMAINS) runs the experiment grids on an
   N-domain pool — results are identical, only wall clock changes.

   The scaling, kron, cache, adapt, fleet and scenarios sections end in
   a gate.  Every requested section runs; then each failed gate is named
   on stderr and the process exits 1.  Every run writes its metrics to
   bench_metrics.json in the current directory. *)

open Bechamel
open Dpm_core

(* --- Bechamel micro-benchmarks ------------------------------------ *)

let perf_tests () =
  let sys = Paper_instance.system () in
  let model = Sys_model.to_ctmdp sys ~weight:1.0 in
  let greedy_chain =
    Sys_model.generator_of_actions sys ~actions:(Policies.greedy sys)
  in
  let greedy_actions = Policies.actions_array sys (Policies.greedy sys) in
  let sim_once () =
    Dpm_sim.Power_sim.run ~seed:9L ~sys
      ~workload:(Dpm_sim.Workload.poisson ~rate:(Sys_model.arrival_rate sys))
      ~controller:(Dpm_sim.Controller.greedy sys)
      ~stop:(Dpm_sim.Power_sim.Requests 2_000) ()
  in
  (* A median design-sweep op's size: the paper SP at Q = 40 (163
     states), its model and its optimal actions at w = 1. *)
  let sys_163 =
    Sys_model.create ~sp:(Paper_instance.service_provider ())
      ~queue_capacity:40 ~arrival_rate:Paper_instance.arrival_rate ()
  in
  let model_163 = Sys_model.to_ctmdp sys_163 ~weight:1.0 in
  let actions_163 = (Optimize.solve ~weight:1.0 sys_163).Optimize.actions in
  (* The relative-value system of one policy evaluation on the paper
     SP at Q = 100 (403 states): the first-choice policy's generator,
     with the reference state's column carrying the gain unknown. *)
  let pi_a, pi_b, pi_model =
    let open Dpm_ctmdp in
    let sys =
      Sys_model.create ~sp:(Paper_instance.service_provider ())
        ~queue_capacity:100 ~arrival_rate:Paper_instance.arrival_rate ()
    in
    let m = Sys_model.to_ctmdp sys ~weight:1.0 in
    let p = Policy.uniform_first m in
    let n = Model.num_states m in
    let a = Dpm_linalg.Matrix.create n n and b = Dpm_linalg.Vec.create n in
    for i = 0 to n - 1 do
      let c = Model.choice m i (Policy.choice_index p i) in
      b.(i) <- -.c.Model.cost;
      List.iter
        (fun (j, r) ->
          Dpm_linalg.Matrix.update a i j (fun x -> x +. r);
          Dpm_linalg.Matrix.update a i i (fun x -> x -. r))
        c.Model.rates;
      Dpm_linalg.Matrix.set a i 0 (-1.0)
    done;
    (a, b, m)
  in
  (* The same system under the row and column permutation policy
     iteration uses: rows and non-reference columns in reverse
     Cuthill-McKee order of the model's transition graph, the gain
     column last. *)
  let band_a, band_b =
    let open Dpm_ctmdp in
    let n = Model.num_states pi_model in
    let o =
      Dpm_linalg.Band.rcm ~late:0 n (fun f ->
          for i = 0 to n - 1 do
            for k = 0 to Model.num_choices pi_model i - 1 do
              List.iter
                (fun (j, _) -> f i j)
                (Model.choice pi_model i k).Model.rates
            done
          done)
    in
    let pos = o.Dpm_linalg.Band.position
    and hb = o.Dpm_linalg.Band.half_bandwidth in
    let col j =
      if j = 0 then n - 1
      else if pos.(j) > pos.(0) then pos.(j) - 1
      else pos.(j)
    in
    let a = Dpm_linalg.Band.create ~n ~kl:(hb + 1) ~ku:hb in
    let b = Dpm_linalg.Vec.create n in
    for i = 0 to n - 1 do
      b.(pos.(i)) <- pi_b.(i);
      for j = 0 to n - 1 do
        let x = Dpm_linalg.Matrix.get pi_a i j in
        if x <> 0.0 then Dpm_linalg.Band.set a pos.(i) (col j) x
      done
    done;
    (a, b)
  in
  Test.make_grouped ~name:"dpm"
    [
      (* FIG4 kernel: one policy-iteration solve of the paper CTMDP. *)
      Test.make ~name:"fig4/policy_iteration"
        (Staged.stage (fun () -> Dpm_ctmdp.Policy_iteration.solve model));
      (* MODELCHECK kernel: the GTH steady-state solve. *)
      Test.make ~name:"modelcheck/steady_state_gth"
        (Staged.stage (fun () -> Dpm_ctmc.Steady_state.gth greedy_chain));
      (* TAB1 kernel: one full analytic metric evaluation. *)
      Test.make ~name:"tab1/analytic_metrics"
        (Staged.stage (fun () -> Analytic.of_action_array sys greedy_actions));
      (* LU kernel: one dense factorization and solve of that system,
         the body of every direct policy-evaluation step before band
         storage. *)
      Test.make ~name:"lu/pi_system_403"
        (Staged.stage (fun () ->
             Dpm_linalg.Lu.solve_factored (Dpm_linalg.Lu.decompose pi_a) pi_b));
      (* The banded kernel on the same system in band order, the body
         of every direct policy-evaluation step. *)
      Test.make ~name:"lu/pi_system_403_band"
        (Staged.stage (fun () ->
             Dpm_linalg.Band.solve_factored
               (Dpm_linalg.Band.decompose band_a)
               band_b));
      (* The layers around policy iteration at 163 states: the
         pre-solve validation pass and the analytic metrics (closed-loop
         generator plus stationary solve). *)
      Test.make ~name:"validate/paper_163"
        (Staged.stage (fun () -> Dpm_robust.Validate.model model_163));
      Test.make ~name:"analytic/paper_163"
        (Staged.stage (fun () -> Analytic.of_action_array sys_163 actions_163));
      (* FIG5 kernel: event-driven simulation (2k requests). *)
      Test.make ~name:"fig5/simulate_2k_requests" (Staged.stage sim_once);
      (* NPOLICY2 kernel: model construction. *)
      Test.make ~name:"npolicy2/build_ctmdp"
        (Staged.stage (fun () -> Sys_model.to_ctmdp sys ~weight:1.0));
      (* ABL2 kernel: the Section III Kronecker build, materialized. *)
      Test.make ~name:"abl2/kron_to_dense"
        (Staged.stage (fun () ->
             Dpm_linalg.Operator.to_dense (Sys_model.operator sys ~action:0)));
    ]

let perf () =
  Printf.printf "\n%s\nPERF  Bechamel micro-benchmarks (one per experiment kernel)\n%s\n"
    (String.make 78 '-') (String.make 78 '-');
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg [ instance ] (perf_tests ()) in
  let results = Analyze.all ols instance raw in
  let rows = Hashtbl.fold (fun name v acc -> (name, v) :: acc) results [] in
  Printf.printf "%-40s %16s\n" "kernel" "time per run";
  List.iter
    (fun (name, ols_result) ->
      match Analyze.OLS.estimates ols_result with
      | Some [ ns ] ->
          Dpm_obs.Probe.set ("bench.perf." ^ name ^ ".ns_per_run") ns;
          let pretty =
            if ns > 1e9 then Printf.sprintf "%.3f s" (ns /. 1e9)
            else if ns > 1e6 then Printf.sprintf "%.3f ms" (ns /. 1e6)
            else if ns > 1e3 then Printf.sprintf "%.3f us" (ns /. 1e3)
            else Printf.sprintf "%.0f ns" ns
          in
          Printf.printf "%-40s %16s\n" name pretty
      | Some _ | None -> Printf.printf "%-40s %16s\n" name "(no estimate)")
    (List.sort compare rows)

(* --- Section dispatch --------------------------------------------- *)

(* A section returns its gate verdict; a section without a gate
   always passes. *)
let ungated f () =
  f ();
  true

let sections =
  [
    ("fig4", ungated Experiments.fig4);
    ("modelcheck", ungated Experiments.modelcheck);
    ("tab1", ungated Experiments.table1);
    ("fig5", ungated Experiments.fig5);
    ("npolicy2", ungated Experiments.npolicy2);
    ("ablations", ungated Ablations.all);
    ("extensions", ungated Extensions.all);
    ("scaling", Scaling.all);
    ("kron", Scaling.kron);
    ("cache", Cache.all);
    ("adapt", Adapt.all);
    ("fleet", Fleet.all);
    ("scenarios", Scenarios.all);
    ("perf", ungated perf);
  ]

let () =
  let args =
    match Array.to_list Sys.argv with _ :: args -> args | [] -> []
  in
  let rec parse_domains acc = function
    | "--domains" :: v :: rest -> (
        match int_of_string_opt v with
        | Some d when d >= 1 ->
            Dpm_par.set_default_domains d;
            parse_domains acc rest
        | _ ->
            Printf.eprintf "--domains expects a positive integer, got %S\n" v;
            exit 1)
    | "--domains" :: [] ->
        Printf.eprintf "--domains expects a value\n";
        exit 1
    | x :: rest -> parse_domains (x :: acc) rest
    | [] -> List.rev acc
  in
  let requested =
    match parse_domains [] args with [] -> [ "all" ] | names -> names
  in
  (* Collect solver/simulator counters and per-section wall clock for
     the whole run. *)
  let registry = Dpm_obs.Metrics.create () in
  Dpm_obs.Probe.set_active (Some registry);
  let failed = ref [] in
  let run name f =
    if not (Dpm_obs.Span.with_ ("bench_" ^ name) f) then
      failed := name :: !failed
  in
  List.iter
    (fun name ->
      if name = "all" then List.iter (fun (n, f) -> run n f) sections
      else
        match List.assoc_opt name sections with
        | Some f -> run name f
        | None ->
            Printf.eprintf "unknown section %S; known: %s all\n" name
              (String.concat " " (List.map fst sections));
            exit 1)
    requested;
  Dpm_obs.Probe.set_active None;
  let oc = open_out "bench_metrics.json" in
  output_string oc (Dpm_obs.Report.to_json registry);
  close_out oc;
  Printf.printf "\nmetrics: wrote bench_metrics.json (%d series)\n"
    (List.length (Dpm_obs.Metrics.samples registry));
  match List.rev !failed with
  | [] -> ()
  | names ->
      List.iter (Printf.eprintf "bench: gate failed: %s\n") names;
      exit 1
