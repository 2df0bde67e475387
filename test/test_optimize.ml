open Dpm_core

let t = Alcotest.test_case

let sys () = Paper_instance.system ()

let gain_equals_weighted_metrics () =
  let s = sys () in
  let w = 1.7 in
  let sol = Optimize.solve ~weight:w s in
  (* The PI gain is the weighted objective; Analytic recomputes the
     two terms separately from the stationary distribution. *)
  Test_util.check_relative ~rel:1e-6 "gain = power + w * waiting"
    (sol.Optimize.metrics.Analytic.power
    +. (w *. sol.Optimize.metrics.Analytic.avg_waiting_requests))
    sol.Optimize.gain

let optimal_beats_named_policies () =
  let s = sys () in
  List.iter
    (fun w ->
      let sol = Optimize.solve ~weight:w s in
      let objective m =
        m.Analytic.power +. (w *. m.Analytic.avg_waiting_requests)
      in
      List.iter
        (fun (name, actions) ->
          let m = Analytic.of_actions s ~actions in
          if sol.Optimize.gain > objective m +. 1e-6 then
            Alcotest.failf "w=%g: optimizer (%g) worse than %s (%g)" w
              sol.Optimize.gain name (objective m))
        [
          ("always_on", Policies.always_on s);
          ("greedy", Policies.greedy s);
          ("n=2", Policies.n_policy s ~n:2);
          ("n=4", Policies.n_policy s ~n:4);
        ])
    [ 0.1; 1.0; 10.0; 200.0 ]

let optimal_actions_respect_constraints () =
  let s = sys () in
  let sol = Optimize.solve ~weight:0.7 s in
  match
    Policies.check_valid s (fun x -> sol.Optimize.actions.(Sys_model.index s x))
  with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let sweep_traces_monotone_frontier () =
  let s = sys () in
  let sols = Optimize.sweep s ~weights:[ 0.05; 0.2; 1.0; 5.0; 25.0; 125.0 ] in
  let rec check : Optimize.solution list -> unit = function
    | a :: (b :: _ as rest) ->
        (* Heavier delay weight: less waiting, at least as much power. *)
        Alcotest.(check bool) "waiting non-increasing" true
          (b.Optimize.metrics.Analytic.avg_waiting_requests
          <= a.Optimize.metrics.Analytic.avg_waiting_requests +. 1e-9);
        Alcotest.(check bool) "power non-decreasing" true
          (b.Optimize.metrics.Analytic.power
          >= a.Optimize.metrics.Analytic.power -. 1e-9);
        check rest
    | _ -> ()
  in
  check sols

let pareto_filter () =
  let s = sys () in
  let sols = Optimize.sweep s ~weights:Optimize.default_weights in
  let front = Optimize.pareto sols in
  Alcotest.(check bool) "front nonempty" true (List.length front > 0);
  (* No member of the front is dominated by any solution. *)
  List.iter
    (fun (a : Optimize.solution) ->
      List.iter
        (fun (b : Optimize.solution) ->
          let strictly_better =
            b.Optimize.metrics.Analytic.power < a.Optimize.metrics.Analytic.power -. 1e-12
            && b.Optimize.metrics.Analytic.avg_waiting_requests
               < a.Optimize.metrics.Analytic.avg_waiting_requests -. 1e-12
          in
          if strictly_better then Alcotest.fail "dominated point on the front")
        sols)
    front;
  (* Front sorted by power. *)
  let rec sorted : Optimize.solution list -> bool = function
    | a :: (b :: _ as rest) ->
        a.Optimize.metrics.Analytic.power <= b.Optimize.metrics.Analytic.power
        && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted by power" true (sorted front)

let constrained_meets_bound () =
  let s = sys () in
  List.iter
    (fun bound ->
      match Optimize.constrained s ~max_waiting_requests:bound with
      | None -> Alcotest.failf "bound %g should be feasible" bound
      | Some sol ->
          Alcotest.(check bool)
            (Printf.sprintf "bound %g met" bound)
            true
            (sol.Optimize.metrics.Analytic.avg_waiting_requests <= bound +. 1e-9))
    [ 0.6; 1.0; 2.0; 4.0 ]

let constrained_tighter_bound_costs_more () =
  let s = sys () in
  match
    ( Optimize.constrained s ~max_waiting_requests:0.6,
      Optimize.constrained s ~max_waiting_requests:3.0 )
  with
  | Some tight, Some loose ->
      Alcotest.(check bool) "tight bound costs at least as much" true
        (tight.Optimize.metrics.Analytic.power
        >= loose.Optimize.metrics.Analytic.power -. 1e-9)
  | _ -> Alcotest.fail "both bounds feasible"

let constrained_infeasible_returns_none () =
  let s = sys () in
  (* The wake-up pipeline bounds waiting below ~0.3 even always-on;
     an absurd bound is infeasible. *)
  Alcotest.(check bool) "infeasible" true
    (Optimize.constrained s ~max_waiting_requests:0.01 = None);
  Test_util.check_raises_invalid "bad bound" (fun () ->
      ignore (Optimize.constrained s ~max_waiting_requests:0.0))

(* A random paper-SP instance (Q = 39, about 1.16 times the paper's
   arrival rate) on which policy iteration still reaches its
   1000-iteration cap at [w_cycle]: the big-M self-switch rounding
   that makes gains rise between iterations.  Each configuration
   below makes the constrained search solve at [w_cycle] — as its
   [w_lo], as its first [w_hi], and as the first bisection midpoint of
   [0, 2 w_cycle] — where one cycling weight used to abort the whole
   search. *)
let w_cycle = 0.071785881573764726

let constrained_skips_nonconvergent_weight () =
  let s =
    Sys_model.create ~sp:(Paper_instance.service_provider ())
      ~queue_capacity:39 ~arrival_rate:0.19351941714613252 ()
  in
  (match
     Dpm_ctmdp.Policy_iteration.solve (Sys_model.to_ctmdp s ~weight:w_cycle)
   with
  | _ -> Alcotest.fail "the pinned instance converges; pin a cycling one"
  | exception Dpm_ctmdp.Solver_error.Nonconvergent { iterations; _ } ->
      Alcotest.(check int) "cap reached" 1000 iterations);
  let bound = 3.0 in
  List.iter
    (fun (name, w_lo, w_hi) ->
      let r, reg =
        Test_util.with_registry (fun () ->
            Optimize.constrained ?w_lo ?w_hi s ~max_waiting_requests:bound)
      in
      match r with
      | None -> Alcotest.failf "%s: no feasible solution" name
      | Some sol ->
          Alcotest.(check bool)
            (name ^ ": feasible") true
            (sol.Optimize.metrics.Analytic.avg_waiting_requests <= bound);
          Alcotest.(check bool)
            (name ^ ": converged") true
            (sol.Optimize.iterations < 1000);
          Alcotest.(check bool)
            (name ^ ": skip counted") true
            (Test_util.counter reg "optimize.constrained_skips" >= 1))
    [
      ("w_lo", Some w_cycle, None);
      ("w_hi", None, Some w_cycle);
      ("midpoint", Some 0.0, Some (2.0 *. w_cycle));
    ]

let action_of_reads_solution () =
  let s = sys () in
  let sol = Optimize.solve ~weight:1.0 s in
  Array.iteri
    (fun k x ->
      Alcotest.(check int) "action_of" sol.Optimize.actions.(k)
        (Optimize.action_of s sol x))
    (Sys_model.states s)

let default_weights_shape () =
  Alcotest.(check int) "20 points" 20 (List.length Optimize.default_weights);
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "increasing ladder" true
    (increasing Optimize.default_weights)

let suite =
  [
    t "gain equals weighted metrics" `Quick gain_equals_weighted_metrics;
    t "beats named policies" `Quick optimal_beats_named_policies;
    t "respects constraints" `Quick optimal_actions_respect_constraints;
    t "sweep monotone frontier" `Quick sweep_traces_monotone_frontier;
    t "pareto filter" `Quick pareto_filter;
    t "constrained meets bound" `Quick constrained_meets_bound;
    t "constrained monotone" `Quick constrained_tighter_bound_costs_more;
    t "constrained infeasible" `Quick constrained_infeasible_returns_none;
    t "constrained skips a weight that does not converge" `Quick
      constrained_skips_nonconvergent_weight;
    t "action_of" `Quick action_of_reads_solution;
    t "default weights" `Quick default_weights_shape;
  ]
