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

(* The one fence, as every guarded solve in the program runs it. *)
let fenced ?deadline_s ?faults f = Guard.run ~stage:"test" ?deadline_s ?faults f

(* --- taxonomy ------------------------------------------------------- *)

(* Each typed source exception, the class it maps to, and that class's
   slug and exit code (3-8, one per class). *)
let of_exn_mapping () =
  let row name exn cls code =
    match Error.of_exn exn with
    | None -> Alcotest.failf "%s: refused to map" name
    | Some e ->
        Alcotest.(check string) (name ^ " class") cls (Error.class_name e);
        Alcotest.(check int) (name ^ " exit code") code (Error.exit_code e);
        e
  in
  let diagnostic_code name = function
    | Error.Invalid_model [ d ] -> d.Diagnostic.code
    | e -> Alcotest.failf "%s: mapped to %s" name (Error.to_string e)
  in
  (match
     row "deadline signal"
       (Error.Deadline_signal { budget_s = 0.5; elapsed_s = 0.75 })
       "deadline-exceeded" 3
   with
  | Error.Deadline_exceeded { budget_s; elapsed_s } ->
      Alcotest.(check (float 0.0)) "budget" 0.5 budget_s;
      Alcotest.(check (float 0.0)) "elapsed" 0.75 elapsed_s
  | e -> Alcotest.failf "deadline signal: %s" (Error.to_string e));
  ignore (row "LU singular" (Dpm_linalg.Lu.Singular 3) "singular" 4);
  (match
     row "non-convergence"
       (Dpm_ctmdp.Solver_error.Nonconvergent
          { solver = "Policy_iteration.solve"; iterations = 42; residual = 0.25 })
       "nonconvergent" 5
   with
  | Error.Nonconvergent { iterations; residual } ->
      Alcotest.(check int) "iterations" 42 iterations;
      Alcotest.(check (float 0.0)) "residual" 0.25 residual
  | e -> Alcotest.failf "non-convergence: %s" (Error.to_string e));
  ignore (row "simplex cycling" (Dpm_linalg.Simplex.Cycling 7) "cycling" 6);
  List.iter
    (fun (name, exn, code) ->
      Alcotest.(check string)
        (name ^ " diagnostic") code
        (diagnostic_code name (row name exn "invalid-model" 7)))
    [
      ( "LP infeasible",
        Dpm_ctmdp.Solver_error.Lp_infeasible "Lp_solver.solve: LP infeasible",
        "lp-infeasible" );
      ( "LP unbounded",
        Dpm_ctmdp.Solver_error.Lp_unbounded "Constrained_lp.solve: unbounded",
        "lp-unbounded" );
      ( "two closed classes",
        Dpm_ctmc.Steady_state.Not_irreducible "two classes",
        "not-unichain" );
      (* A message is no longer read for its class: a [Failure] that
         mentions convergence is the generic diagnostic. *)
      ( "Failure text",
        Failure "Policy_iteration.solve: no convergence after 42 iterations",
        "failure" );
    ];
  (match
     row "non-finite signal" (Error.Non_finite_signal "gain") "non-finite" 8
   with
  | Error.Non_finite site -> Alcotest.(check string) "site" "gain" site
  | e -> Alcotest.failf "non-finite signal: %s" (Error.to_string e));
  List.iter
    (fun (name, exn) ->
      match Error.of_exn exn with
      | None -> ()
      | Some e -> Alcotest.failf "%s: mapped to %s" name (Error.to_string e))
    [ ("stack overflow", Stack_overflow); ("out of memory", Out_of_memory) ]

(* --- deadlines ------------------------------------------------------ *)

let deadline_fires_immediately () =
  let r, reg =
    with_registry (fun () ->
        fenced ~deadline_s:0.0 (fun guard ->
            Dpm_ctmdp.Policy_iteration.solve ~guard (paper_model ())))
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
        fenced ~deadline_s:0.001 ~faults:(Fault.plan [ Fault.Stall ])
          (fun guard ->
            Dpm_ctmdp.Policy_iteration.solve ~guard (paper_model ())))
  in
  (match r with
  | Error (Error.Deadline_exceeded _) -> ()
  | Ok _ -> Alcotest.fail "stalled solve finished under a 1ms deadline"
  | Error e -> Alcotest.failf "wrong error: %s" (Error.to_string e));
  Alcotest.(check bool)
    "stall injected" true
    (counter reg "fault.injected.stall" >= 1)

let value_iteration_deadline () =
  match
    fenced ~deadline_s:0.0 (fun guard ->
        Dpm_ctmdp.Value_iteration.solve ~guard (paper_model ()))
  with
  | Error (Error.Deadline_exceeded _) -> ()
  | Ok _ -> Alcotest.fail "zero deadline did not fire"
  | Error e -> Alcotest.failf "wrong error: %s" (Error.to_string e)

let steady_state_deadline () =
  let g =
    Dpm_ctmc.Generator.of_rates ~dim:3
      [ (0, 1, 1.0); (1, 2, 1.0); (2, 0, 1.0) ]
  in
  match
    fenced ~deadline_s:0.0 (fun guard -> Dpm_ctmc.Steady_state.solve ~guard g)
  with
  | Error (Error.Deadline_exceeded _) -> ()
  | Ok _ -> Alcotest.fail "zero deadline did not fire"
  | Error e -> Alcotest.failf "wrong error: %s" (Error.to_string e)

(* --- typed solver failures ----------------------------------------- *)

let pi_tikhonov_ladder_recovers () =
  let r, reg =
    with_registry (fun () ->
        fenced (fun guard ->
            Dpm_ctmdp.Policy_iteration.solve ~guard (two_orbit_model ())))
  in
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
  match
    fenced (fun guard -> Dpm_ctmdp.Policy_iteration.solve ~max_iter:1 ~guard m)
  with
  | Error (Error.Nonconvergent { iterations; residual }) ->
      Alcotest.(check int) "iterations carried" 1 iterations;
      Alcotest.(check bool) "no residual measure" true (Float.is_nan residual)
  | Ok _ -> Alcotest.fail "PI converged in one sweep on a flip-flop model"
  | Error e -> Alcotest.failf "wrong error: %s" (Error.to_string e)

(* Value iteration reports an unconverged run in its result; a caller
   that wants it typed raises the solvers' exception from it. *)
let vi_nonconvergence_is_typed () =
  match
    fenced (fun guard ->
        let r =
          Dpm_ctmdp.Value_iteration.solve ~tol:0.0 ~max_iter:5 ~guard
            (paper_model ())
        in
        let open Dpm_ctmdp.Value_iteration in
        if not r.converged then
          raise
            (Dpm_ctmdp.Solver_error.Nonconvergent
               {
                 solver = "Value_iteration.solve";
                 iterations = r.iterations;
                 residual = r.gain_upper -. r.gain_lower;
               });
        r)
  with
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
  let r, reg =
    with_registry (fun () ->
        fenced (fun guard ->
            let r = Dpm_ctmdp.Value_iteration.solve ~max_iter:10 ~guard m in
            let open Dpm_ctmdp.Value_iteration in
            Guard.check_finite_vec ~site:"value_iteration.values" r.values;
            Guard.check_finite ~site:"value_iteration.gain_lower" r.gain_lower;
            Guard.check_finite ~site:"value_iteration.gain_upper" r.gain_upper;
            r))
  in
  (match r with
  | Error (Error.Non_finite site) ->
      Alcotest.(check bool)
        "site names the stage" true
        (String.starts_with ~prefix:"value_iteration." site)
  | Ok _ -> Alcotest.fail "1e308 costs cannot survive uniformized backups"
  | Error e -> Alcotest.failf "wrong error: %s" (Error.to_string e));
  Alcotest.(check int) "counted once" 1 (counter reg "robust.non_finite")

let lp_pivot_budget_is_cycling () =
  match
    fenced (fun guard ->
        Dpm_ctmdp.Lp_solver.solve ~max_pivots:1 ~guard (paper_model ()))
  with
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
  match fenced (fun guard -> Dpm_ctmc.Steady_state.solve ~guard g) with
  | Error (Error.Invalid_model ds) ->
      Alcotest.(check bool)
        "not-unichain diagnostic" true
        (List.exists (fun d -> d.Diagnostic.code = "not-unichain") ds)
  | Ok _ -> Alcotest.fail "two closed classes accepted"
  | Error e -> Alcotest.failf "wrong error: %s" (Error.to_string e)

(* The distribution a fenced stationary solve returns is finite and
   satisfies the exact balance equations: one mat-vec,
   |p G| <= 1e-7 * max rate. *)
let steady_state_happy_path_verifies () =
  let g =
    Dpm_ctmc.Generator.of_rates ~dim:3
      [ (0, 1, 2.0); (1, 0, 1.0); (1, 2, 1.0); (2, 0, 3.0) ]
  in
  match
    fenced (fun guard ->
        let p = Dpm_ctmc.Steady_state.solve ~guard g in
        Guard.check_finite_vec ~site:"steady_state.distribution" p;
        p)
  with
  | Ok p ->
      let sum = Array.fold_left ( +. ) 0.0 p in
      Alcotest.(check (float 1e-9)) "normalized" 1.0 sum;
      let scale = Float.max 1.0 (Dpm_ctmc.Generator.uniformization_rate g) in
      Alcotest.(check bool)
        "balance residual" true
        (Dpm_ctmc.Steady_state.residual g p <= 1e-7 *. scale)
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
      (Sys_model.choices sys ~weight:1.0)
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
  Dpm_cache.Solve_cache.with_capacity 0 @@ fun () ->
  match Dpm_scenario.Solve.solve m with
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
  let raw = Sys_model.choices sys ~weight:1.0 in
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

(* A dense matrix to a generator: every validation finding reported
   as [Invalid_model], then the build fenced. *)
let generator_of_matrix m =
  match Diagnostic.errors (Validate.generator_matrix m) with
  | [] -> fenced (fun _ -> Dpm_ctmc.Generator.of_matrix m)
  | errs -> Error (Error.Invalid_model errs)

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
          match generator_of_matrix corrupted with
          | Ok g -> (
              match
                fenced (fun guard -> Dpm_ctmc.Steady_state.solve ~guard g)
              with
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
      match generator_of_matrix (Fault.corrupt_matrix plan base) with
      | Error (Error.Invalid_model _) -> ()
      | Ok _ -> Alcotest.failf "NaN entry accepted, seed %d" seed
      | Error e ->
          Alcotest.failf "NaN entry: wrong error class %s (seed %d)"
            (Error.to_string e) seed)
    [ 1; 2; 3; 4; 5 ]

(* --- diagnostic text ----------------------------------------------- *)

let rendered ds = List.map Diagnostic.to_string ds

(* Every finding's code, site and message, rendered in full: sites are
   formatted lazily, so these pin that the text did not change. *)
let diagnostic_text_pinned () =
  let check name want ds =
    Alcotest.(check (list string)) name want (rendered ds)
  in
  check "one of each"
    [
      "error[choices-raised] state 1: Failure(\"boom\")";
      "error[bad-target] state 0, choice 0: rate targets state 3 of 3";
      "error[bad-target] state 0, choice 0: self-rate (diagonal is implied)";
      "error[bad-rate] state 0, choice 0: rate to state 1 is inf";
      "error[bad-rate] state 0, choice 0: rate to state 2 is negative (-0.5)";
      "error[duplicate-action] state 0: choices 0 and 2 both carry action \
       label 0";
      "error[duplicate-action] state 0: choices 1 and 3 both carry action \
       label 1";
      "error[empty-choice] state 1: no choices";
      "error[non-finite-cost] state 2, choice 0: cost rate is -inf";
    ]
    (Validate.choices ~num_states:3 (function
      | 0 ->
          [
            choice 0 0.0
              [ (3, 1.0); (0, 1.0); (1, Float.infinity); (2, -0.5) ];
            choice 1 0.0 [ (1, 1.0) ];
            choice 0 1.0 [ (2, 1.0) ];
            choice 1 2.0 [];
          ]
      | 1 -> failwith "boom"
      | _ -> [ choice 7 Float.neg_infinity [ (0, 1.0) ] ]));
  check "union graph"
    [
      "error[not-unichain] union graph: the union of all choices has 2 \
       closed classes; no policy can be unichain";
    ]
    (Validate.choices ~num_states:4 (function
      | 0 -> [ choice 0 0.0 [ (1, 1.0) ] ]
      | 1 -> [ choice 0 0.0 [ (0, 1.0) ] ]
      | 2 -> [ choice 0 0.0 [ (3, 1.0) ] ]
      | _ -> [ choice 0 0.0 [ (2, 1.0) ] ]));
  check "empty model" [ "error[empty-model] model: num_states = 0" ]
    (Validate.choices ~num_states:0 (fun _ -> []));
  let flood =
    Validate.choices ~num_states:150 (fun _ -> [ choice 0 Float.nan [] ])
  in
  Alcotest.(check int) "cap" 101 (List.length flood);
  check "truncated tail"
    [
      "error[non-finite-cost] state 99, choice 0: cost rate is nan";
      "warning[truncated] report: more than 100 findings; further ones dropped";
    ]
    (List.filteri (fun i _ -> i >= 99) flood);
  (* The fault matrix of [model_fault_matrix], every finding in full:
     its first seed per kind spelled out, all 42 findings digested. *)
  let sys = Paper_instance.system () in
  let n = Sys_model.num_states sys in
  let raw = Sys_model.choices sys ~weight:1.0 in
  let all = Buffer.create 4096 and count = ref 0 and first = ref [] in
  List.iter
    (fun kind ->
      List.iter
        (fun seed ->
          let plan = Fault.plan ~seed:(Int64.of_int seed) [ kind ] in
          let ds =
            Validate.choices ~num_states:n
              (Fault.corrupt_choices plan ~num_states:n raw)
          in
          List.iter
            (fun line ->
              incr count;
              Buffer.add_string all line;
              Buffer.add_char all '\n')
            (rendered ds);
          if seed = 1 then first := !first @ rendered ds)
        [ 1; 2; 3; 4; 5; 6; 7 ])
    [
      Fault.Nan_rate;
      Fault.Negative_rate;
      Fault.Nan_cost;
      Fault.Empty_choice;
      Fault.Bad_target;
      Fault.Duplicate_action;
    ];
  Alcotest.(check (list string))
    "fault matrix, seed 1"
    [
      "error[bad-rate] state 1, choice 0: rate to state 2 is nan";
      "error[bad-rate] state 6, choice 0: rate to state 7 is negative (-1)";
      "error[non-finite-cost] state 22, choice 0: cost rate is nan";
      "error[empty-choice] state 19: no choices";
      "error[bad-target] state 3, choice 0: rate targets state 23 of 23";
      "error[duplicate-action] state 20: choices 0 and 1 both carry action \
       label 0";
    ]
    !first;
  Alcotest.(check int) "fault matrix findings" 42 !count;
  Alcotest.(check string) "fault matrix digest"
    "a7578f5ec17258d55fb692b89dcdcb02"
    (Digest.to_hex (Digest.string (Buffer.contents all)))

(* A clean model's validation builds no site string and no generator:
   what it allocates is the union graph's successor arrays and Tarjan's
   stacks, O(n + edges).  The paper SYS at Q = 100 has 403 states and
   takes about 37k words; formatting every site and building the union
   generator, as validation once did, took 232k. *)
let validate_allocation () =
  let sys =
    Sys_model.create ~sp:(Paper_instance.service_provider ())
      ~queue_capacity:100 ~arrival_rate:Paper_instance.arrival_rate ()
  in
  let m = Sys_model.to_ctmdp sys ~weight:1.0 in
  (* The least of three runs: a garbage collection that happens to fall
     inside one run can add words that validation never asked for. *)
  let run () =
    let before = Gc.minor_words () in
    let ds = Validate.model m in
    let words = Gc.minor_words () -. before in
    Alcotest.(check int) "clean" 0 (List.length ds);
    words
  in
  let words = Float.min (run ()) (Float.min (run ()) (run ())) in
  let budget = 150.0 *. float_of_int (Sys_model.num_states sys) in
  if words > budget then
    Alcotest.failf "Validate.model allocated %.0f words at %d states (budget %.0f)"
      words (Sys_model.num_states sys) budget

(* --- one check, two reporters ---------------------------------------- *)

(* [Model.create] and [Validate.choices] run the same check, so they
   agree on every table: the constructor raises exactly when the
   validator reports an error of its own.  Only the validator judges
   unichain reachability and a [choices_of] that raises. *)
let validator_only = [ "not-unichain"; "choices-raised" ]

let table_gen =
  let open QCheck2.Gen in
  let paper =
    let sys = Paper_instance.system () in
    let n = Sys_model.num_states sys in
    let raw = Sys_model.choices sys ~weight:1.0 in
    map2
      (fun seed kinds ->
        let plan = Fault.plan ~seed:(Int64.of_int seed) kinds in
        (n, Fault.corrupt_choices plan ~num_states:n raw))
      (int_range 0 10_000)
      (list_size (int_range 0 2)
         (oneofl
            Fault.
              [
                Nan_rate;
                Negative_rate;
                Nan_cost;
                Empty_choice;
                Bad_target;
                Duplicate_action;
              ]))
  in
  (* Hand-made tables: out-of-range or self targets, NaN, infinite or
     negative rates, non-finite costs, empty action sets and duplicate
     labels, each rare enough that clean tables occur too. *)
  let hand =
    int_range 0 4 >>= fun n ->
    let target =
      frequency
        [ (1, return (-1)); (1, return n); (8, int_range 0 (max 0 (n - 1))) ]
    in
    let rate =
      frequency
        [
          (12, oneofl [ 0.0; 1.0; 2.5 ]);
          (1, oneofl [ Float.nan; -1.0; Float.infinity ]);
        ]
    in
    let cost =
      frequency
        [ (12, oneofl [ 0.0; 1.5 ]); (1, oneofl [ Float.nan; Float.neg_infinity ]) ]
    in
    let choice =
      map3
        (fun action cost rates -> { Dpm_ctmdp.Model.action; rates; cost })
        (int_range 0 5) cost
        (list_size (int_range 0 2) (pair target rate))
    in
    map
      (fun rows ->
        let rows = Array.of_list rows in
        (n, fun i -> rows.(i)))
      (list_repeat n
         (list_size (frequency [ (1, return 0); (8, int_range 1 3) ]) choice))
  in
  oneof [ paper; hand ]

let create_agrees_with_validate =
  Test_util.qtest ~count:400 "Model.create raises iff Validate.choices errs"
    table_gen (fun (num_states, choices_of) ->
      let raises =
        match Dpm_ctmdp.Model.create ~num_states choices_of with
        | _ -> false
        | exception Invalid_argument _ -> true
      in
      let errs =
        List.filter
          (fun d -> not (List.mem d.Diagnostic.code validator_only))
          (Diagnostic.errors (Validate.choices ~num_states choices_of))
      in
      raises = (errs <> []))

let of_matrix_raises m =
  match Dpm_ctmc.Generator.of_matrix m with
  | _ -> false
  | exception Dpm_ctmc.Generator.Invalid _ -> true

let matrix_errs m = Diagnostic.errors (Validate.generator_matrix m)

(* Generators at rate scales 1 to 1e6, then at most one fault: a NaN
   entry, a negative entry, or a row pushed off zero by k * 1e-9 — the
   band where a relative and an absolute row-sum tolerance disagree. *)
let matrix_gen =
  let open QCheck2.Gen in
  let open Dpm_linalg in
  int_range 0 4 >>= fun n ->
  oneofl [ 1.0; 1e3; 1e6 ] >>= fun scale ->
  list_repeat (n * n) (float_range 0.0 1.0) >>= fun raw ->
  int_range 0 (max 0 (n - 1)) >>= fun i ->
  int_range 0 (max 0 (n - 1)) >>= fun j ->
  int_range (-10) 10 >>= fun k ->
  frequency
    [ (1, return `Clean); (1, return `Nan); (1, return `Negative); (3, return `Off) ]
  >>= fun fault ->
  let raw = Array.of_list raw in
  let m =
    Matrix.init n n (fun r c -> if r = c then 0.0 else scale *. raw.((r * n) + c))
  in
  for r = 0 to n - 1 do
    let out = ref 0.0 in
    for c = 0 to n - 1 do
      if c <> r then out := !out +. Matrix.get m r c
    done;
    Matrix.set m r r (-. !out)
  done;
  (if n > 0 then
     match fault with
     | `Clean -> ()
     | `Nan -> Matrix.set m i j Float.nan
     | `Negative -> Matrix.set m i j (-1.0)
     | `Off -> Matrix.update m i i (fun d -> d +. (float_of_int k *. 1e-9)));
  return m

let of_matrix_agrees_with_validate =
  Test_util.qtest ~count:400
    ~print:(Format.asprintf "%a" Dpm_linalg.Matrix.pp)
    "Generator.of_matrix raises iff Validate.generator_matrix errs" matrix_gen
    (fun m -> of_matrix_raises m = (matrix_errs m <> []))

(* The two matrices on which the validator once called clean what the
   constructor refused: the empty matrix, and a row off zero by 5e-9 at
   scale 10 (inside a relative tolerance, outside the absolute one). *)
let drifted_matrices_rejected_by_both () =
  let open Dpm_linalg in
  List.iter
    (fun (name, m, want) ->
      Alcotest.(check bool) (name ^ ": constructor raises") true
        (of_matrix_raises m);
      Alcotest.(check (list string))
        (name ^ ": validator codes") [ want ]
        (List.map (fun d -> d.Diagnostic.code) (matrix_errs m)))
    [
      ("0x0", Matrix.create 0 0, "empty-matrix");
      ( "row off by 5e-9",
        Matrix.of_arrays [| [| -10.0; 10.0 +. 5e-9 |]; [| 1.0; -1.0 |] |],
        "row-sum" );
    ]

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
    t "diagnostic text pinned" `Quick diagnostic_text_pinned;
    t "validation allocates O(n + edges)" `Quick validate_allocation;
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
    create_agrees_with_validate;
    of_matrix_agrees_with_validate;
    t "generator matrix: the drifted cases are rejected by both" `Quick
      drifted_matrices_rejected_by_both;
  ]
