open Dpm_ctmdp

let t = Alcotest.test_case

let speed_control ~holding ~fast_cost =
  let lam = 1.0 in
  Model.create ~num_states:3 (fun i ->
      let arrivals = if i < 2 then [ (i + 1, lam) ] else [] in
      let serve rate = if i > 0 then [ (i - 1, rate) ] else [] in
      let hold = holding *. float_of_int i in
      [
        { Model.action = 0; rates = arrivals @ serve 1.5; cost = hold +. 1.0 };
        { Model.action = 1; rates = arrivals @ serve 4.0; cost = hold +. fast_cost };
      ])

let agrees_with_policy_iteration () =
  List.iter
    (fun (holding, fast_cost) ->
      let m = speed_control ~holding ~fast_cost in
      let pi = Policy_iteration.solve m in
      let vi = Value_iteration.solve ~tol:1e-12 m in
      Alcotest.(check bool) "converged" true vi.Value_iteration.converged;
      Alcotest.(check bool)
        (Printf.sprintf "PI gain within VI bounds (h=%g f=%g)" holding fast_cost)
        true
        (vi.Value_iteration.gain_lower -. 1e-7 <= pi.Policy_iteration.gain
        && pi.Policy_iteration.gain <= vi.Value_iteration.gain_upper +. 1e-7);
      (* The greedy policy read off VI achieves the same gain. *)
      let e = Policy_iteration.evaluate m vi.Value_iteration.policy in
      Test_util.check_close ~tol:1e-6 "VI policy gain" pi.Policy_iteration.gain
        e.Policy_iteration.gain)
    [ (0.1, 3.0); (1.0, 3.0); (5.0, 3.0); (5.0, 1.2) ]

let bounds_tighten () =
  let m = speed_control ~holding:2.0 ~fast_cost:3.0 in
  let loose = Value_iteration.solve ~tol:1e-2 ~max_iter:1_000_000 m in
  let tight = Value_iteration.solve ~tol:1e-10 m in
  Alcotest.(check bool) "tight interval smaller" true
    (tight.Value_iteration.gain_upper -. tight.Value_iteration.gain_lower
    <= loose.Value_iteration.gain_upper -. loose.Value_iteration.gain_lower +. 1e-12)

let iteration_cap_respected () =
  let m = speed_control ~holding:2.0 ~fast_cost:3.0 in
  let r = Value_iteration.solve ~tol:1e-15 ~max_iter:3 m in
  Alcotest.(check bool) "not converged in 3 sweeps" false r.Value_iteration.converged;
  Alcotest.(check int) "stopped at cap" 3 r.Value_iteration.iterations

let single_action_model_evaluates () =
  (* With one action everywhere, VI just evaluates the chain. *)
  let m =
    Model.create ~num_states:2 (fun i ->
        if i = 0 then [ { Model.action = 0; rates = [ (1, 1.0) ]; cost = 4.0 } ]
        else [ { Model.action = 0; rates = [ (0, 3.0) ]; cost = 8.0 } ])
  in
  let r = Value_iteration.solve ~tol:1e-12 m in
  Alcotest.(check bool) "gain near 5" true
    (r.Value_iteration.gain_lower <= 5.0 +. 1e-6
    && 5.0 -. 1e-6 <= r.Value_iteration.gain_upper)

(* The boxed relative value iteration the flattened kernel replaced:
   a fold over each choice's rate list per backup, fresh vectors every
   sweep.  Kept as the reference the kernel must match bit for bit;
   [max_iter] mirrors [Value_iteration.solve]'s default. *)
let boxed_reference ?(max_iter = 1_000_000) ~tol m =
  let n = Model.num_states m in
  let u = Model.max_exit_rate m in
  let lam = if u = 0.0 then 1.0 else 1.05 *. u in
  let backup v i k =
    let c = Model.choice m i k in
    List.fold_left
      (fun acc (j, r) -> acc +. (r /. lam *. (v.(j) -. v.(i))))
      ((c.Model.cost /. lam) +. v.(i))
      c.Model.rates
  in
  let v = ref (Dpm_linalg.Vec.create n) in
  let iterations = ref 0 in
  let lower = ref neg_infinity and upper = ref infinity in
  let converged = ref false in
  while (not !converged) && !iterations < max_iter do
    let next =
      Dpm_linalg.Vec.init n (fun i ->
          let best = ref (backup !v i 0) in
          for k = 1 to Model.num_choices m i - 1 do
            best := Float.min !best (backup !v i k)
          done;
          !best)
    in
    let diff = Dpm_linalg.Vec.sub next !v in
    lower := lam *. Array.fold_left Float.min infinity diff;
    upper := lam *. Array.fold_left Float.max neg_infinity diff;
    let offset = next.(0) in
    v := Dpm_linalg.Vec.map (fun x -> x -. offset) next;
    incr iterations;
    if Dpm_linalg.Vec.span diff < tol then converged := true
  done;
  let greedy =
    Array.init n (fun i ->
        let best = ref 0 and best_value = ref (backup !v i 0) in
        for k = 1 to Model.num_choices m i - 1 do
          let value = backup !v i k in
          if value < !best_value then begin
            best := k;
            best_value := value
          end
        done;
        !best)
  in
  (!v, !lower, !upper, !iterations, Policy.of_choice_indices m greedy)

let implicit_kernel_bit_identical () =
  (* The flattened float-array sweep kernel performs the same arithmetic
     in the same order as the boxed reference, so everything — values,
     bounds, policy, iteration count — must match bitwise, not merely
     within tolerance.  Checked on the small speed-control model and
     on a composed paper system (which runs to the sweep cap: its
     big-M self-switch rates stall value iteration). *)
  let check label m =
    let values, lower, upper, iterations, policy =
      boxed_reference ~tol:1e-10 m
    in
    let flat = Value_iteration.solve ~tol:1e-10 m in
    Alcotest.(check bool)
      (label ^ ": bit-identical values")
      true
      (values = flat.Value_iteration.values);
    Alcotest.(check bool)
      (label ^ ": identical bounds")
      true
      (lower = flat.Value_iteration.gain_lower
      && upper = flat.Value_iteration.gain_upper);
    Alcotest.(check int)
      (label ^ ": identical sweep count")
      iterations flat.Value_iteration.iterations;
    Alcotest.(check bool)
      (label ^ ": identical policy")
      true
      (Policy.actions m policy = Policy.actions m flat.Value_iteration.policy)
  in
  check "speed-control" (speed_control ~holding:2.0 ~fast_cost:3.0);
  let sys = Dpm_core.Paper_instance.system () in
  check "paper instance" (Dpm_core.Sys_model.to_ctmdp sys ~weight:1.0)

(* A sweep allocates nothing: the words [solve] allocates at 1,000
   sweeps and at 10 differ by less than a sweep's worth.  Each run
   allocates a fixed set-up (flattened choices, iterates, result); a
   backup that returned a boxed float cost about 110 words per sweep
   on this 23-state model, some 109k words over the difference. *)
let sweep_allocates_nothing () =
  let m =
    Dpm_core.Sys_model.to_ctmdp (Dpm_core.Paper_instance.system ()) ~weight:1.0
  in
  (* The least of three runs: a collection inside one run can add
     words the solve never asked for. *)
  let words max_iter =
    let run () =
      let before = Gc.minor_words () in
      let r = Value_iteration.solve ~tol:0.0 ~max_iter m in
      let w = Gc.minor_words () -. before in
      Alcotest.(check int) "ran to the cap" max_iter r.Value_iteration.iterations;
      w
    in
    Float.min (run ()) (Float.min (run ()) (run ()))
  in
  let short = words 10 and long = words 1_000 in
  if long -. short > 100.0 then
    Alcotest.failf "990 extra sweeps allocated %.0f words (%.0f at 10, %.0f at 1000)"
      (long -. short) short long

let suite =
  [
    t "agrees with policy iteration" `Quick agrees_with_policy_iteration;
    t "implicit sweep kernel is bit-identical" `Quick
      implicit_kernel_bit_identical;
    t "bounds tighten with tol" `Quick bounds_tighten;
    t "iteration cap" `Quick iteration_cap_respected;
    t "single-action evaluation" `Quick single_action_model_evaluates;
    t "a sweep allocates nothing" `Quick sweep_allocates_nothing;
  ]
