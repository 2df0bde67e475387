(* The Dpm_robust contract, exercised over the full fault matrix:
   every injected fault becomes a typed error or a verified fallback —
   never an uncaught exception — and a poisoned sweep point never
   takes the rest of the grid down with it. *)

open Dpm_core
open Dpm_robust

let t = Alcotest.test_case

let with_registry = Test_util.with_registry
let counter = Test_util.counter

let choice action cost rates = { Dpm_ctmdp.Model.action; rates; cost }

(* A model whose union graph is unichain (orbit {0,1} can escape to
   the closed orbit {2,3}) but whose first-choice policy is
   multichain — the exact case the Tikhonov ladder exists for. *)
let two_orbit_model () =
  Dpm_ctmdp.Model.create ~num_states:4 (function
    | 0 -> [ choice 0 1.0 [ (1, 1.0) ]; choice 1 5.0 [ (2, 1.0) ] ]
    | 1 -> [ choice 0 1.0 [ (0, 1.0) ] ]
    | 2 -> [ choice 0 0.0 [ (3, 1.0) ] ]
    | 3 -> [ choice 0 0.0 [ (2, 1.0) ] ]
    | _ -> assert false)

let paper_model () = Sys_model.to_ctmdp (Paper_instance.system ()) ~weight:1.0

let code_of_error = function
  | Error.Invalid_model ds ->
      List.map (fun d -> d.Diagnostic.code) (Diagnostic.errors ds)
  | _ -> []

(* --- taxonomy ------------------------------------------------------- *)

(* Structural equality with NaN-tolerant residuals; plain [<>] would
   reject matching Nonconvergent payloads because nan <> nan. *)
let error_equal a b =
  match (a, b) with
  | ( Error.Nonconvergent { iterations = i1; residual = r1 },
      Error.Nonconvergent { iterations = i2; residual = r2 } ) ->
      i1 = i2 && (r1 = r2 || (Float.is_nan r1 && Float.is_nan r2))
  | _ -> a = b

let of_exn_mapping () =
  let check name exn expected =
    match (Error.of_exn exn, expected) with
    | Some got, Some want ->
        if not (error_equal got want) then
          Alcotest.failf "%s: mapped to %s, wanted %s" name
            (Error.to_string got) (Error.to_string want)
    | None, None -> ()
    | Some got, None ->
        Alcotest.failf "%s: mapped to %s, wanted re-raise" name
          (Error.to_string got)
    | None, Some want ->
        Alcotest.failf "%s: refused to map, wanted %s" name
          (Error.to_string want)
  in
  check "singular" (Dpm_linalg.Lu.Singular 3) (Some Error.Singular);
  check "cycling" (Dpm_linalg.Simplex.Cycling 7) (Some Error.Cycling);
  check "nonconvergent"
    (Failure "Policy_iteration.solve: no convergence after 42 iterations")
    (Some
       (Error.Nonconvergent { iterations = 42; residual = Float.nan }));
  check "stack-overflow" Stack_overflow None;
  check "out-of-memory" Out_of_memory None;
  (match Error.of_exn (Dpm_ctmc.Steady_state.Not_irreducible "two classes") with
  | Some (Error.Invalid_model [ d ]) ->
      Alcotest.(check string) "code" "not-unichain" d.Diagnostic.code
  | other ->
      Alcotest.failf "Not_irreducible mapped to %s"
        (match other with Some e -> Error.to_string e | None -> "re-raise"))

(* --- deadlines ------------------------------------------------------ *)

let deadline_fires_immediately () =
  let r, reg =
    with_registry (fun () ->
        Policy_iteration.solve_r ~deadline_s:0.0 (paper_model ()))
  in
  (match r with
  | Error (Error.Deadline_exceeded { budget_s; elapsed_s }) ->
      Alcotest.(check (float 0.0)) "budget" 0.0 budget_s;
      Alcotest.(check bool) "elapsed >= 0" true (elapsed_s >= 0.0)
  | Ok _ -> Alcotest.fail "zero deadline did not fire"
  | Error e -> Alcotest.failf "wrong error: %s" (Error.to_string e));
  Alcotest.(check bool)
    "counter" true
    (counter reg "robust.deadline_exceeded" >= 1)

let stall_fault_caught_by_deadline () =
  let r, reg =
    with_registry (fun () ->
        Policy_iteration.solve_r ~deadline_s:0.001
          ~faults:(Fault.plan [ Fault.Stall ])
          (paper_model ()))
  in
  (match r with
  | Error (Error.Deadline_exceeded _) -> ()
  | Ok _ -> Alcotest.fail "stalled solve finished under a 1ms deadline"
  | Error e -> Alcotest.failf "wrong error: %s" (Error.to_string e));
  Alcotest.(check bool)
    "stall injected" true
    (counter reg "fault.injected.stall" >= 1)

let value_iteration_deadline () =
  match Value_iteration.solve_r ~deadline_s:0.0 (paper_model ()) with
  | Error (Error.Deadline_exceeded _) -> ()
  | Ok _ -> Alcotest.fail "zero deadline did not fire"
  | Error e -> Alcotest.failf "wrong error: %s" (Error.to_string e)

let steady_state_deadline () =
  let g =
    Dpm_ctmc.Generator.of_rates ~dim:3
      [ (0, 1, 1.0); (1, 2, 1.0); (2, 0, 1.0) ]
  in
  match Steady_state.solve_r ~deadline_s:0.0 g with
  | Error (Error.Deadline_exceeded _) -> ()
  | Ok _ -> Alcotest.fail "zero deadline did not fire"
  | Error e -> Alcotest.failf "wrong error: %s" (Error.to_string e)

(* --- typed solver failures ----------------------------------------- *)

let pi_tikhonov_ladder_recovers () =
  let r, reg = with_registry (fun () -> Policy_iteration.solve_r (two_orbit_model ())) in
  (match r with
  | Ok res ->
      (* The optimum parks in the free orbit {2,3}. *)
      Alcotest.(check bool)
        "gain finite" true
        (Float.is_finite res.Dpm_ctmdp.Policy_iteration.gain)
  | Error e -> Alcotest.failf "ladder did not recover: %s" (Error.to_string e));
  Alcotest.(check bool)
    "entered ladder" true
    (counter reg "policy_iteration.robust_retries" >= 1);
  Alcotest.(check bool)
    "counted rungs" true
    (counter reg "policy_iteration.tikhonov_rungs" >= 1)

let pi_iteration_budget_is_typed () =
  let m =
    Dpm_ctmdp.Model.create ~num_states:1 (fun _ ->
        [ choice 0 1.0 []; choice 1 0.0 [] ])
  in
  match Policy_iteration.solve_r ~max_iter:1 m with
  | Error (Error.Nonconvergent { iterations; _ }) ->
      Alcotest.(check int) "iterations parsed" 1 iterations
  | Ok _ -> Alcotest.fail "PI converged in one sweep on a flip-flop model"
  | Error e -> Alcotest.failf "wrong error: %s" (Error.to_string e)

let vi_nonconvergence_is_typed () =
  match Value_iteration.solve_r ~tol:0.0 ~max_iter:5 (paper_model ()) with
  | Error (Error.Nonconvergent { iterations; residual }) ->
      Alcotest.(check int) "iterations" 5 iterations;
      Alcotest.(check bool) "residual finite" true (Float.is_finite residual)
  | Ok _ -> Alcotest.fail "tol = 0 cannot converge"
  | Error e -> Alcotest.failf "wrong error: %s" (Error.to_string e)

let vi_overflow_is_non_finite () =
  let m =
    Dpm_ctmdp.Model.create ~num_states:2 (function
      | 0 -> [ choice 0 1e308 [ (1, 1.0) ] ]
      | _ -> [ choice 0 (-1e308) [ (0, 1.0) ] ])
  in
  match Value_iteration.solve_r ~max_iter:10 m with
  | Error (Error.Non_finite site) ->
      Alcotest.(check bool)
        "site names the stage" true
        (String.length site > 0)
  | Ok _ -> Alcotest.fail "1e308 costs cannot survive uniformized backups"
  | Error e -> Alcotest.failf "wrong error: %s" (Error.to_string e)

let lp_pivot_budget_is_cycling () =
  match Lp_solver.solve_r ~max_pivots:1 (paper_model ()) with
  | Error Error.Cycling -> ()
  | Ok _ -> Alcotest.fail "23-row phase 1 finished within the Bland retry"
  | Error e -> Alcotest.failf "wrong error: %s" (Error.to_string e)

let simplex_bland_retry_then_cycling () =
  let open Dpm_linalg in
  let n = 6 in
  let a = Matrix.init n n (fun i j -> if i = j then 1.0 else 0.0) in
  let b = Vec.init n (fun _ -> 1.0) in
  let c = Vec.create n in
  let r, reg =
    with_registry (fun () ->
        match Simplex.minimize ~max_pivots:1 ~c ~a b with
        | outcome -> Ok outcome
        | exception Simplex.Cycling pivots -> Error pivots)
  in
  (match r with
  | Error pivots -> Alcotest.(check bool) "pivot count" true (pivots >= 1)
  | Ok _ -> Alcotest.fail "6 structural pivots fit in a budget of 1");
  Alcotest.(check bool)
    "bland retry counted" true
    (counter reg "simplex.bland_retries" >= 1)

let steady_state_two_classes_is_invalid () =
  let g =
    Dpm_ctmc.Generator.of_rates ~dim:4
      [ (0, 1, 1.0); (1, 0, 1.0); (2, 3, 1.0); (3, 2, 1.0) ]
  in
  match Steady_state.solve_r g with
  | Error (Error.Invalid_model ds) ->
      Alcotest.(check bool)
        "not-unichain diagnostic" true
        (List.exists (fun d -> d.Diagnostic.code = "not-unichain") ds)
  | Ok _ -> Alcotest.fail "two closed classes accepted"
  | Error e -> Alcotest.failf "wrong error: %s" (Error.to_string e)

let steady_state_happy_path_verifies () =
  let g =
    Dpm_ctmc.Generator.of_rates ~dim:3
      [ (0, 1, 2.0); (1, 0, 1.0); (1, 2, 1.0); (2, 0, 3.0) ]
  in
  match Steady_state.solve_r g with
  | Ok p ->
      let sum = Array.fold_left ( +. ) 0.0 p in
      Alcotest.(check (float 1e-9)) "normalized" 1.0 sum
  | Error e -> Alcotest.failf "valid chain rejected: %s" (Error.to_string e)

(* --- validation ----------------------------------------------------- *)

let paper_instance_validates_clean () =
  let sys = Paper_instance.system () in
  let diags = Validate.system sys in
  (match Diagnostic.errors diags with
  | [] -> ()
  | d :: _ ->
      Alcotest.failf "paper instance rejected: %s" (Diagnostic.to_string d));
  match
    Validate.model_r ~num_states:(Sys_model.num_states sys)
      (Validate.system_choices sys ~weight:1.0)
  with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "paper choices rejected: %s" (Error.to_string e)

let map_costs_poison_is_caught () =
  (* map_costs skips re-validation by design; the robust layer's
     pre-solve pass is what stands between a NaN cost and the
     solver. *)
  let m =
    Dpm_ctmdp.Model.map_costs
      (fun i _ -> if i = 2 then Float.nan else 0.0)
      (paper_model ())
  in
  match Policy_iteration.solve_r m with
  | Error (Error.Invalid_model ds) ->
      Alcotest.(check bool)
        "non-finite-cost diagnostic" true
        (List.exists (fun d -> d.Diagnostic.code = "non-finite-cost") ds)
  | Ok _ -> Alcotest.fail "NaN cost survived validation"
  | Error e -> Alcotest.failf "wrong error: %s" (Error.to_string e)

let validate_reports_all_findings () =
  (* Three independent corruptions -> three findings in one report. *)
  let bad = function
    | 0 -> [ choice 0 Float.nan [ (1, 1.0) ] ]
    | 1 -> [ choice 0 0.0 [ (0, -2.0) ] ]
    | 2 -> []
    | _ -> [ choice 0 0.0 [ (0, 1.0) ] ]
  in
  let diags = Validate.choices ~num_states:4 bad in
  let codes = List.map (fun d -> d.Diagnostic.code) (Diagnostic.errors diags) in
  List.iter
    (fun want ->
      Alcotest.(check bool) want true (List.mem want codes))
    [ "non-finite-cost"; "bad-rate"; "empty-choice" ]

let generator_matrix_diagnostics () =
  let open Dpm_linalg in
  let g =
    Dpm_ctmc.Generator.of_rates ~dim:3
      [ (0, 1, 1.0); (1, 2, 1.0); (2, 0, 1.0) ]
  in
  let m = Dpm_ctmc.Generator.to_matrix g in
  Alcotest.(check (list string))
    "clean matrix" []
    (List.map Diagnostic.to_string
       (Diagnostic.errors (Validate.generator_matrix m)));
  let nan_m = Fault.corrupt_matrix (Fault.plan [ Fault.Nan_entry ]) m in
  Alcotest.(check bool)
    "nan entry found" true
    (List.exists
       (fun d -> d.Diagnostic.code = "non-finite-entry")
       (Validate.generator_matrix nan_m));
  let neg = Matrix.copy m in
  Matrix.set neg 0 1 (-0.5);
  let codes = List.map (fun d -> d.Diagnostic.code) (Validate.generator_matrix neg) in
  Alcotest.(check bool) "negative rate" true (List.mem "negative-rate" codes);
  Alcotest.(check bool) "row sum" true (List.mem "row-sum" codes)

(* --- the fault matrix ----------------------------------------------- *)

let expected_code = function
  | Fault.Nan_rate | Fault.Negative_rate -> "bad-rate"
  | Fault.Nan_cost -> "non-finite-cost"
  | Fault.Empty_choice -> "empty-choice"
  | Fault.Bad_target -> "bad-target"
  | Fault.Duplicate_action -> "duplicate-action"
  | Fault.Zero_row | Fault.Nan_entry | Fault.Duplicate_row | Fault.Stall ->
      assert false

let model_fault_matrix () =
  let sys = Paper_instance.system () in
  let n = Sys_model.num_states sys in
  let raw = Validate.system_choices sys ~weight:1.0 in
  List.iter
    (fun kind ->
      List.iter
        (fun seed ->
          let plan = Fault.plan ~seed:(Int64.of_int seed) [ kind ] in
          let corrupted = Fault.corrupt_choices plan ~num_states:n raw in
          match Validate.model_r ~num_states:n corrupted with
          | Error (Error.Invalid_model ds) ->
              let want = expected_code kind in
              if
                not
                  (List.exists (fun d -> d.Diagnostic.code = want)
                     (Diagnostic.errors ds))
              then
                Alcotest.failf "%s seed %d: no %s diagnostic in %s"
                  (Fault.kind_to_string kind) seed want
                  (String.concat "; " (List.map Diagnostic.to_string ds))
          | Error e ->
              Alcotest.failf "%s seed %d: wrong error class %s"
                (Fault.kind_to_string kind) seed (Error.to_string e)
          | Ok _ ->
              Alcotest.failf "%s seed %d: corrupted model escaped validation"
                (Fault.kind_to_string kind) seed)
        [ 1; 2; 3; 4; 5; 6; 7 ])
    [
      Fault.Nan_rate;
      Fault.Negative_rate;
      Fault.Nan_cost;
      Fault.Empty_choice;
      Fault.Bad_target;
      Fault.Duplicate_action;
    ]

let matrix_fault_matrix () =
  let sys = Paper_instance.system () in
  let base = Sys_model.uniform_generator sys ~action:0 in
  List.iter
    (fun kind ->
      List.iter
        (fun seed ->
          let plan = Fault.plan ~seed:(Int64.of_int seed) [ kind ] in
          let corrupted = Fault.corrupt_matrix plan base in
          (* The contract under the matrix faults: a typed verdict,
             never an uncaught exception.  NaN entries must be
             rejected; a zeroed row is a legal absorbing state; a
             duplicated row keeps the generator property. *)
          match Steady_state.of_matrix_r corrupted with
          | Ok g -> (
              match Steady_state.solve_r g with
              | Ok _ | Error _ -> ())
          | Error (Error.Invalid_model _) ->
              if kind = Fault.Zero_row then
                Alcotest.failf "zero-row (absorbing) wrongly rejected, seed %d"
                  seed
          | Error e ->
              Alcotest.failf "%s seed %d: wrong error class %s"
                (Fault.kind_to_string kind) seed (Error.to_string e))
        [ 1; 2; 3; 4; 5 ])
    [ Fault.Zero_row; Fault.Nan_entry; Fault.Duplicate_row ]

let nan_entry_always_rejected () =
  let sys = Paper_instance.system () in
  let base = Sys_model.uniform_generator sys ~action:0 in
  List.iter
    (fun seed ->
      let plan = Fault.plan ~seed:(Int64.of_int seed) [ Fault.Nan_entry ] in
      match Steady_state.of_matrix_r (Fault.corrupt_matrix plan base) with
      | Error (Error.Invalid_model _) -> ()
      | Ok _ -> Alcotest.failf "NaN entry accepted, seed %d" seed
      | Error e ->
          Alcotest.failf "NaN entry: wrong error class %s (seed %d)"
            (Error.to_string e) seed)
    [ 1; 2; 3; 4; 5 ]

(* --- degrade-gracefully sweeps -------------------------------------- *)

let poisoned_sweep_keeps_other_points () =
  let sys = Paper_instance.system () in
  let weights = [ 0.5; Float.nan; 2.0 ] in
  let results, reg =
    with_registry (fun () -> Optimize.sweep_r ~domains:2 sys ~weights)
  in
  (match results with
  | [ (_, Ok a); (w, Error _); (_, Ok b) ] ->
      Alcotest.(check bool) "poisoned weight" true (Float.is_nan w);
      Alcotest.(check bool)
        "solutions ordered" true
        (a.Optimize.weight = 0.5 && b.Optimize.weight = 2.0)
  | _ -> Alcotest.fail "expected [Ok; Error; Ok] in weight order");
  Alcotest.(check int) "one failure counted" 1 (counter reg "par.item_failures")

let poisoned_sweep_raises_in_strict_api () =
  let sys = Paper_instance.system () in
  match Optimize.sweep sys ~weights:[ 0.5; Float.nan ] with
  | _ -> Alcotest.fail "strict sweep must re-raise the poisoned point"
  | exception Invalid_argument _ -> ()

let sweep_r_matches_sweep () =
  let sys = Paper_instance.system () in
  let weights = [ 0.5; 2.0 ] in
  let strict = Optimize.sweep sys ~weights in
  let fenced =
    List.map
      (fun (_, r) -> match r with Ok s -> s | Error _ -> assert false)
      (Optimize.sweep_r sys ~weights)
  in
  List.iter2
    (fun (a : Optimize.solution) (b : Optimize.solution) ->
      Alcotest.(check (float 1e-12)) "same gain" a.Optimize.gain b.Optimize.gain)
    strict fenced

let rate_sweep_r_happy_path () =
  let sys = Paper_instance.system () in
  let sol = Optimize.solve ~weight:1.0 sys in
  let rates = [ 0.1; 0.25 ] in
  let rs =
    Sensitivity.rate_sweep_r sys ~actions:sol.Optimize.actions ~weight:1.0
      ~rates
  in
  Alcotest.(check int) "grid size" 2 (List.length rs);
  List.iter2
    (fun want (got, r) ->
      Alcotest.(check (float 0.0)) "rate order" want got;
      match r with
      | Ok p -> Alcotest.(check (float 0.0)) "point rate" want p.Sensitivity.rate
      | Error exn -> raise exn)
    rates rs

let parallel_map_result_contains_failures () =
  List.iter
    (fun domains ->
      let rs =
        Dpm_par.parallel_map_result ~domains
          (fun i -> if i mod 2 = 0 then failwith "even" else i * i)
          (Array.init 10 Fun.id)
      in
      Array.iteri
        (fun i r ->
          match r with
          | Ok v when i mod 2 = 1 -> Alcotest.(check int) "value" (i * i) v
          | Error (Failure msg) when i mod 2 = 0 ->
              Alcotest.(check string) "message" "even" msg
          | Ok _ -> Alcotest.failf "slot %d: even index succeeded" i
          | Error _ -> Alcotest.failf "slot %d: wrong failure" i)
        rs)
    [ 1; 4 ]

let suite =
  [
    t "error.of_exn mapping" `Quick of_exn_mapping;
    t "deadline fires immediately at budget 0" `Quick deadline_fires_immediately;
    t "injected stall is caught by the deadline" `Quick
      stall_fault_caught_by_deadline;
    t "value iteration honors deadlines" `Quick value_iteration_deadline;
    t "steady state honors deadlines" `Quick steady_state_deadline;
    t "PI multichain policy recovers via Tikhonov ladder" `Quick
      pi_tikhonov_ladder_recovers;
    t "PI iteration budget maps to Nonconvergent" `Quick
      pi_iteration_budget_is_typed;
    t "VI non-convergence maps to Nonconvergent" `Quick
      vi_nonconvergence_is_typed;
    t "VI overflow maps to Non_finite" `Quick vi_overflow_is_non_finite;
    t "LP pivot budget maps to Cycling" `Quick lp_pivot_budget_is_cycling;
    t "simplex retries under Bland then raises Cycling" `Quick
      simplex_bland_retry_then_cycling;
    t "steady state: two closed classes are Invalid_model" `Quick
      steady_state_two_classes_is_invalid;
    t "steady state: valid chain verifies" `Quick
      steady_state_happy_path_verifies;
    t "paper instance validates clean" `Quick paper_instance_validates_clean;
    t "map_costs NaN poison is caught pre-solve" `Quick
      map_costs_poison_is_caught;
    t "validation reports all findings at once" `Quick
      validate_reports_all_findings;
    t "generator matrix diagnostics" `Quick generator_matrix_diagnostics;
    t "fault matrix: every model fault is typed" `Quick model_fault_matrix;
    t "fault matrix: matrix faults never escape" `Quick matrix_fault_matrix;
    t "fault matrix: NaN entries always rejected" `Quick
      nan_entry_always_rejected;
    t "poisoned sweep keeps the other grid points" `Quick
      poisoned_sweep_keeps_other_points;
    t "strict sweep re-raises the poisoned point" `Quick
      poisoned_sweep_raises_in_strict_api;
    t "sweep_r agrees with sweep" `Quick sweep_r_matches_sweep;
    t "rate_sweep_r happy path" `Quick rate_sweep_r_happy_path;
    t "parallel_map_result contains failures per item" `Quick
      parallel_map_result_contains_failures;
  ]
