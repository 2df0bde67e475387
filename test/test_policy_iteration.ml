open Dpm_ctmdp

let t = Alcotest.test_case

(* An M/M/1/2 admission-control-flavored CTMDP: in each queue state the
   controller picks a service speed; faster speed costs more per unit
   time but drains the queue (holding cost). *)
let speed_control ~holding ~fast_cost =
  let lam = 1.0 in
  Model.create ~num_states:3 (fun i ->
      let arrivals = if i < 2 then [ (i + 1, lam) ] else [] in
      let serve rate = if i > 0 then [ (i - 1, rate) ] else [] in
      let hold = holding *. float_of_int i in
      [
        { Model.action = 0 (* slow *); rates = arrivals @ serve 1.5; cost = hold +. 1.0 };
        { Model.action = 1 (* fast *); rates = arrivals @ serve 4.0; cost = hold +. fast_cost };
      ])

let evaluation_matches_hand_solution () =
  (* Fixed policy on a 2-state chain: gain = stationary cost. *)
  let m =
    Model.create ~num_states:2 (fun i ->
        if i = 0 then [ { Model.action = 0; rates = [ (1, 1.0) ]; cost = 4.0 } ]
        else [ { Model.action = 0; rates = [ (0, 3.0) ]; cost = 8.0 } ])
  in
  let p = Policy.uniform_first m in
  let e = Policy_iteration.evaluate m p in
  (* pi = (0.75, 0.25) -> gain = 5. *)
  Test_util.check_close ~tol:1e-10 "gain" 5.0 e.Policy_iteration.gain;
  Test_util.check_close ~tol:1e-10 "reference bias" 0.0 e.Policy_iteration.bias.(0);
  (* Bias equation at state 0: c0 - g + G00 v0 + G01 v1 = 0
     -> 4 - 5 + 1*(v1 - 0) = 0 -> v1 = 1. *)
  Test_util.check_close ~tol:1e-10 "bias state 1" 1.0 e.Policy_iteration.bias.(1)

let solve_matches_brute_force () =
  List.iter
    (fun (holding, fast_cost) ->
      let m = speed_control ~holding ~fast_cost in
      let r = Policy_iteration.solve m in
      let _, best_gain = Policy_iteration.brute_force m in
      Test_util.check_close ~tol:1e-9
        (Printf.sprintf "optimal gain (h=%g, f=%g)" holding fast_cost)
        best_gain r.Policy_iteration.gain)
    [ (0.1, 3.0); (1.0, 3.0); (5.0, 3.0); (5.0, 1.2); (0.01, 10.0) ]

let cheap_fast_service_always_chosen () =
  (* If fast costs the same as slow, fast dominates wherever there is
     a queue to drain. *)
  let m = speed_control ~holding:2.0 ~fast_cost:1.0 in
  let r = Policy_iteration.solve m in
  Alcotest.(check int) "fast in state 1" 1
    (Policy.action m r.Policy_iteration.policy 1);
  Alcotest.(check int) "fast in state 2" 1
    (Policy.action m r.Policy_iteration.policy 2)

let trace_is_monotone_and_terminates () =
  let m = speed_control ~holding:2.0 ~fast_cost:3.0 in
  let r = Policy_iteration.solve m in
  Alcotest.(check bool) "few iterations" true (r.Policy_iteration.iterations <= 10);
  let gains =
    List.map (fun s -> s.Policy_iteration.evaluation.Policy_iteration.gain)
      r.Policy_iteration.trace
  in
  let rec nonincreasing = function
    | a :: (b :: _ as rest) -> a >= b -. 1e-9 && nonincreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "gains do not increase across iterations" true
    (nonincreasing gains);
  (* Last step reports zero changes. *)
  (match List.rev r.Policy_iteration.trace with
  | last :: _ -> Alcotest.(check int) "fixed point" 0 last.Policy_iteration.changed_states
  | [] -> Alcotest.fail "empty trace")

let solve_from_any_start_same_gain () =
  let m = speed_control ~holding:1.5 ~fast_cost:2.5 in
  let r0 = Policy_iteration.solve m in
  Seq.iter
    (fun p ->
      let r = Policy_iteration.solve ~init:p m in
      Test_util.check_close ~tol:1e-9 "gain independent of start"
        r0.Policy_iteration.gain r.Policy_iteration.gain)
    (Policy.enumerate m)

let gain_invariant_to_reference_state () =
  let m = speed_control ~holding:2.0 ~fast_cost:3.0 in
  let p = Policy.uniform_first m in
  let e0 = Policy_iteration.evaluate ~ref_state:0 m p in
  let e2 = Policy_iteration.evaluate ~ref_state:2 m p in
  Test_util.check_close ~tol:1e-9 "same gain" e0.Policy_iteration.gain
    e2.Policy_iteration.gain;
  (* Biases differ by a constant: v0 - v2 shifts. *)
  let d02 = e0.Policy_iteration.bias.(1) -. e2.Policy_iteration.bias.(1) in
  let d01 = e0.Policy_iteration.bias.(2) -. e2.Policy_iteration.bias.(2) in
  Test_util.check_close ~tol:1e-9 "bias shift constant" d02 d01

let multichain_policies_handled () =
  (* Two absorbing "orbits": the stay/stay policy is multichain and
     its exact evaluation is singular.  evaluate must raise, the
     robust variant must answer, and solve must still find the
     optimum (park in the cheap state). *)
  let m =
    Model.create ~num_states:2 (fun i ->
        if i = 0 then
          [
            { Model.action = 0; rates = []; cost = 1.0 };
            { Model.action = 1; rates = [ (1, 1.0) ]; cost = 2.0 };
          ]
        else
          [
            { Model.action = 0; rates = []; cost = 1.5 };
            { Model.action = 1; rates = [ (0, 1.0) ]; cost = 2.0 };
          ])
  in
  let stay_stay = Policy.of_actions m [| 0; 0 |] in
  (match Policy_iteration.evaluate m stay_stay with
  | exception Dpm_linalg.Lu.Singular _ -> ()
  | _ -> Alcotest.fail "expected Singular on the multichain policy");
  let e = Policy_iteration.evaluate_robust m stay_stay in
  (* The restart perturbation anchors the gain at the reference
     orbit's cost rate. *)
  Test_util.check_relative ~rel:1e-6 "perturbed gain" 1.0 e.Policy_iteration.gain;
  let r = Policy_iteration.solve ~init:stay_stay m in
  Test_util.check_relative ~rel:1e-6 "optimal gain" 1.0 r.Policy_iteration.gain;
  Alcotest.(check int) "cheap state stays" 0
    (Policy.action m r.Policy_iteration.policy 0)

(* Random small CTMDPs; brute force confirms optimality. *)
let random_mdp_gen =
  QCheck2.Gen.(
    int_range 2 4 >>= fun n ->
    let choice_gen state =
      map2
        (fun costs extra ->
          (* A cycle edge guarantees unichain under every policy. *)
          let base = ((state + 1) mod n, 0.4 +. Float.abs extra) in
          { Model.action = 0; rates = [ base ]; cost = costs }
        )
        (float_range 0.0 10.0) (float_range 0.1 3.0)
    in
    let alt_gen state =
      map2
        (fun cost r ->
          let second =
            (* Skip the two-hop edge when it would be a self-rate. *)
            if (state + 2) mod n <> state then [ ((state + 2) mod n, r) ] else []
          in
          { Model.action = 1; rates = ((state + 1) mod n, 0.2) :: second; cost })
        (float_range 0.0 10.0) (float_range 0.1 3.0)
    in
    map
      (fun rows -> Model.create ~num_states:n (fun i -> List.nth rows i))
      (flatten_l
         (List.init n (fun i ->
              map2 (fun a b -> [ a; b ]) (choice_gen i) (alt_gen i)))))

let prop_pi_beats_every_policy =
  Test_util.qtest ~count:60 "policy iteration is optimal (brute force)"
    random_mdp_gen (fun m ->
      let r = Policy_iteration.solve m in
      let _, best = Policy_iteration.brute_force m in
      r.Policy_iteration.gain <= best +. 1e-7)

let prop_bias_equations_hold =
  Test_util.qtest ~count:60 "relative value equations hold" random_mdp_gen
    (fun m ->
      let p = Policy.uniform_first m in
      let e = Policy_iteration.evaluate m p in
      let g = Policy.generator m p in
      let c = Policy.cost_vector m p in
      let n = Model.num_states m in
      let ok = ref true in
      for i = 0 to n - 1 do
        let flow = ref 0.0 in
        for j = 0 to n - 1 do
          flow := !flow +. (Dpm_ctmc.Generator.get g i j *. e.Policy_iteration.bias.(j))
        done;
        if Float.abs (c.(i) -. e.Policy_iteration.gain +. !flow) > 1e-7 then
          ok := false
      done;
      !ok)

(* --- the iterative evaluation route ----------------------------------

   Models of 192 states and up evaluate by Gauss-Seidel sweeps with
   dense LU behind them.  The route must really run on such models,
   agree with dense LU, and answer every declined policy with exactly
   the dense result. *)

let paper_model q =
  Dpm_core.Sys_model.to_ctmdp (Test_util.paper_at_capacity q) ~weight:1.0

let iterative_route_accepts () =
  List.iter
    (fun q ->
      let m = paper_model q in
      let p = Policy.uniform_first m in
      let e, reg =
        Test_util.with_registry (fun () -> Policy_iteration.evaluate_sparse m p)
      in
      let label = Printf.sprintf "Q=%d (%d states)" q (Model.num_states m) in
      Alcotest.(check int)
        (label ^ ": sparse_evals")
        1
        (Test_util.counter reg "policy_iteration.sparse_evals");
      Alcotest.(check int)
        (label ^ ": sparse_fallbacks")
        0
        (Test_util.counter reg "policy_iteration.sparse_fallbacks");
      let d = Policy_iteration.evaluate_robust m p in
      Test_util.check_close ~tol:1e-9 (label ^ ": gain") d.Policy_iteration.gain
        e.Policy_iteration.gain;
      let scale = Float.max 1.0 (Dpm_linalg.Vec.norm_inf d.Policy_iteration.bias) in
      let err =
        Dpm_linalg.Vec.norm_inf
          (Dpm_linalg.Vec.sub d.Policy_iteration.bias e.Policy_iteration.bias)
      in
      if err > 1e-6 *. scale then
        Alcotest.failf "%s: bias differs by %g (scale %g)" label err scale)
    [ 50; 100 ]

let typed_fallbacks () =
  let check label ?max_iter m p expected counter_suffix =
    (match Policy_iteration.evaluate_iterative ?max_iter m p with
    | Ok _ -> Alcotest.failf "%s: expected a fallback" label
    | Error reason ->
        if reason <> expected then
          Alcotest.failf "%s: got fallback %s, expected %s" label
            (Policy_iteration.fallback_to_string reason)
            (Policy_iteration.fallback_to_string expected));
    let e, reg =
      Test_util.with_registry (fun () ->
          Policy_iteration.evaluate_sparse ?max_iter m p)
    in
    Alcotest.(check int)
      (label ^ ": sparse_fallbacks")
      1
      (Test_util.counter reg "policy_iteration.sparse_fallbacks");
    Alcotest.(check int)
      (label ^ ": labelled counter")
      1
      (Test_util.counter reg
         ("policy_iteration.sparse_fallbacks." ^ counter_suffix));
    let d = Policy_iteration.evaluate_robust m p in
    Alcotest.(check bool)
      (label ^ ": answer is the dense LU result")
      true
      (e.Policy_iteration.gain = d.Policy_iteration.gain
      && e.Policy_iteration.bias = d.Policy_iteration.bias)
  in
  (* The optimum on paper Q=50 never enters state 0: it is transient,
     so no state can reach it — a unichain policy, not a multichain
     one. *)
  let m = paper_model 50 in
  let optimum = (Policy_iteration.solve m).Policy_iteration.policy in
  check "unreachable reference" m optimum
    (Policy_iteration.Unreachable_reference { unreached = 202; states = 203 })
    "unreachable_reference";
  check "not converged" ~max_iter:1 m (Policy.uniform_first m)
    Policy_iteration.Not_converged "not_converged";
  (* State 0 is absorbing; both others drain into it. *)
  let absorbing =
    Model.create ~num_states:3 (fun i ->
        let rates = if i = 0 then [] else [ (i - 1, 1.0) ] in
        [ { Model.action = 0; rates; cost = float_of_int i } ])
  in
  check "absorbing state" absorbing
    (Policy.uniform_first absorbing)
    (Policy_iteration.Absorbing_state { state = 0 })
    "absorbing_state"

(* [dpm_cli solve -q 100 -w 3] falls back because 402 of the 403
   states cannot reach reference state 0; the labelled counter names
   that reason. *)
let unreachable_reference_counted () =
  Dpm_cache.Solve_cache.with_capacity 0 @@ fun () ->
  let sys = Test_util.paper_at_capacity 100 in
  let _, reg =
    Test_util.with_registry (fun () -> Dpm_core.Optimize.solve ~weight:3.0 sys)
  in
  let total = Test_util.counter reg "policy_iteration.sparse_fallbacks" in
  let unreachable =
    Test_util.counter reg
      "policy_iteration.sparse_fallbacks.unreachable_reference"
  in
  Alcotest.(check bool) "unreachable_reference counted" true (unreachable > 0);
  Alcotest.(check bool) "within the aggregate" true (unreachable <= total)

(* --- guard threading through the evaluation sweeps ------------------

   The ?guard hook must reach the Gauss-Seidel loops themselves — not
   just the policy-improvement loop — so a wall-clock deadline (or an
   injected stall) can abort a wedged evaluation mid-sweep.  A guard
   that raises Deadline_signal must propagate out as-is, never be
   swallowed into the dense fallback. *)
let signal = Dpm_robust.Error.Deadline_signal { budget_s = 0.0; elapsed_s = 0.0 }

let guard_reaches_evaluation_sweeps () =
  let m = speed_control ~holding:1.0 ~fast_cost:3.0 in
  let p = Policy.uniform_first m in
  let ticks = ref 0 in
  let guard () =
    incr ticks;
    if !ticks > 1 then raise signal
  in
  (match Policy_iteration.evaluate_sparse ~guard m p with
  | (_ : Policy_iteration.evaluation) -> Alcotest.fail "guard signal swallowed"
  | exception Dpm_robust.Error.Deadline_signal _ -> ());
  Alcotest.(check bool) "guard ticked inside the sweeps" true (!ticks > 1)

let solve_deadline_covers_iterative_eval () =
  (* A deadline entering through solve on a model past the 192-state
     switch must abort the iterative evaluation mid-sweep with the
     typed error, not hang or fall back.  The first tick is the top
     of the first iteration; the second comes from inside that
     iteration's evaluation sweeps. *)
  let m = paper_model 50 in
  let ticks = ref 0 in
  let guard () =
    incr ticks;
    if !ticks > 1 then raise signal
  in
  let r, reg =
    Test_util.with_registry (fun () ->
        Dpm_robust.Guard.run ~stage:"policy_iteration" (fun _ ->
            Policy_iteration.solve ~guard m))
  in
  (match r with
  | Ok _ -> Alcotest.fail "deadline ignored by the iterative route"
  | Error (Dpm_robust.Error.Deadline_exceeded _) -> ()
  | Error e ->
      Alcotest.failf "unexpected error class: %s"
        (Dpm_robust.Error.to_string e));
  Alcotest.(check int) "aborted on the second tick" 2 !ticks;
  Alcotest.(check int) "no evaluation finished" 0
    (Test_util.counter reg "policy_iteration.sparse_evals");
  Alcotest.(check int) "no fallback taken" 0
    (Test_util.counter reg "policy_iteration.sparse_fallbacks")

(* The paper-SP instance on which policy iteration used to cycle until
   its 1000-iteration cap (the design-sweep benchmark's "known defect"
   line).  It converges, to the gain GTH gives its policy, and as the
   self-switch rate M grows the gain moves as 1/M: monotone, each
   step a tenth of the one before. *)
let big_m_instance_converges () =
  let gain_at m_rate =
    let sys =
      Dpm_core.Sys_model.create ~self_switch_rate:m_rate
        ~sp:(Dpm_core.Paper_instance.service_provider ())
        ~queue_capacity:12 ~arrival_rate:0.15219046446687456 ()
    in
    let m = Dpm_core.Sys_model.to_ctmdp sys ~weight:0.19722228378263976 in
    let r = Policy_iteration.solve m in
    let actions = Policy.actions m r.Policy_iteration.policy in
    let stationary = Dpm_scenario.Solve.stationary_gain m ~actions in
    Test_util.check_relative ~rel:1e-9
      (Printf.sprintf "M = %g: PI gain against GTH" m_rate)
      stationary r.Policy_iteration.gain;
    r.Policy_iteration.gain
  in
  let gains = List.map gain_at [ 1e5; 1e6; 1e7; 1e8 ] in
  let steps =
    List.map2 ( -. )
      (List.filteri (fun k _ -> k < 3) gains)
      (List.tl gains)
  in
  List.iter
    (fun d -> if d <= 0.0 then Alcotest.failf "gain rose with M (step %g)" d)
    steps;
  List.iter2
    (fun d d' ->
      let ratio = d /. d' in
      if ratio < 8.0 || ratio > 12.0 then
        Alcotest.failf "steps %g, %g are not a 1/M sequence (ratio %g)" d d'
          ratio)
    (List.filteri (fun k _ -> k < 2) steps)
    (List.tl steps)

let suite =
  [
    t "big-M cycling instance converges, gain moves as 1/M" `Quick
      big_m_instance_converges;
    t "evaluation hand-checked" `Quick evaluation_matches_hand_solution;
    t "guard reaches evaluation sweeps" `Quick guard_reaches_evaluation_sweeps;
    t "unreachable reference counted by reason" `Quick
      unreachable_reference_counted;
    t "deadline covers iterative eval" `Quick solve_deadline_covers_iterative_eval;
    t "iterative route accepts first-choice policies" `Quick
      iterative_route_accepts;
    t "typed fallbacks answered by dense LU" `Quick typed_fallbacks;
    t "matches brute force" `Quick solve_matches_brute_force;
    t "dominant action chosen" `Quick cheap_fast_service_always_chosen;
    t "trace monotone, terminates" `Quick trace_is_monotone_and_terminates;
    t "start-independent gain" `Quick solve_from_any_start_same_gain;
    t "reference-state invariance" `Quick gain_invariant_to_reference_state;
    t "multichain policies handled" `Quick multichain_policies_handled;
    prop_pi_beats_every_policy;
    prop_bias_equations_hold;
  ]
