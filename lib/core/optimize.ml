type solution = {
  weight : float;
  actions : int array;
  gain : float;
  iterations : int;
  metrics : Analytic.metrics;
  provenance : Dpm_trace.Provenance.t;
}

let solve ?(weight = 0.0) ?init_actions ?guard sys =
  let t0 = Dpm_obs.Probe.now () in
  let model = Sys_model.to_ctmdp sys ~weight in
  (* One encoding serves lookup, store and digest.  [finish] reads the
     clock after the metrics it is passed, so [wall_s] covers them. *)
  let key = Dpm_cache.Fingerprint.key model in
  let finish ~actions ~metrics (result : Dpm_ctmdp.Policy_iteration.result) =
    {
      weight;
      actions;
      gain = result.Dpm_ctmdp.Policy_iteration.gain;
      iterations = result.Dpm_ctmdp.Policy_iteration.iterations;
      metrics;
      provenance =
        {
          result.Dpm_ctmdp.Policy_iteration.provenance with
          Dpm_trace.Provenance.wall_s = Dpm_obs.Probe.now () -. t0;
          weight;
          arrival_rate = Sys_model.arrival_rate sys;
        };
    }
  in
  match Dpm_cache.Solve_cache.find ~key model with
  | Some (result, stationary) ->
      let actions =
        Dpm_ctmdp.Policy.actions model result.Dpm_ctmdp.Policy_iteration.policy
      in
      (* An entry stored by [Dpm_scenario.Solve] carries no
         distribution; solve for it then. *)
      let metrics =
        match stationary with
        | Some p -> Analytic.of_stationary sys actions p
        | None -> Analytic.of_action_array sys actions
      in
      finish ~actions ~metrics result
  | None ->
      let solve_from init =
        let result = Dpm_ctmdp.Policy_iteration.solve ?init ?guard model in
        let actions =
          Dpm_ctmdp.Policy.actions model
            result.Dpm_ctmdp.Policy_iteration.policy
        in
        (result, actions)
      in
      let init =
        match init_actions with
        | None -> None
        | Some actions -> Dpm_cache.Warm.init_of_actions model actions
      in
      let result, actions = solve_from init in
      let result, actions, metrics =
        match Analytic.of_action_array sys actions with
        | metrics -> (result, actions, metrics)
        | exception Dpm_ctmc.Steady_state.Not_irreducible _ ->
            (* The converged policy can be multichain only on exact ties
               between self-sufficient orbits (e.g. two identical active
               speeds).  Restart policy iteration from the greedy policy,
               whose orbit structure is connected, to break the tie. *)
            let greedy =
              Policies.to_ctmdp_policy sys model (Policies.greedy sys)
            in
            let result, actions = solve_from (Some greedy) in
            (result, actions, Analytic.of_action_array sys actions)
      in
      (* Store only the post-retry result: the cache must never serve a
         multichain tie that the retry just worked around. *)
      finish ~actions ~metrics
        (Dpm_cache.Solve_cache.store ~key
           ~stationary:metrics.Analytic.state_probabilities model result)

let action_of sys solution x = solution.actions.(Sys_model.index sys x)

let solve_at ?weight ?init_actions ?guard sys ~arrival_rate =
  let sys' = Sys_model.with_arrival_rate sys arrival_rate in
  match solve ?weight ?init_actions ?guard sys' with
  | solution -> Ok (sys', solution)
  | exception ((Out_of_memory | Stack_overflow) as fatal) -> raise fatal
  | exception exn -> Error exn

let sweep_r ?domains ?guard ?(warm = true) sys ~weights =
  (* One policy-iteration solve per weight, fenced per grid point: a
     poisoned weight yields an [Error] slot while every other point
     still solves.  With [warm] (the default) points run in the
     {!Dpm_cache.Warm.waves} schedule, each seeded by an
     already-solved point's policy — the schedule and every seed are
     functions of the grid size alone, so results (iteration counts
     included) are identical at any domain count, and a failed or
     invalid seed just degrades that point to a cold start. *)
  let ws = Array.of_list weights in
  let n = Array.length ws in
  let results = Array.make n None in
  let solve_point (k, src) =
    let init_actions =
      match src with
      | None -> None
      | Some j -> (
          match results.(j) with
          | Some (Ok s) -> Some s.actions
          | Some (Error _) | None -> None)
    in
    solve ~weight:ws.(k) ?init_actions ?guard sys
  in
  let schedule =
    if warm then Dpm_cache.Warm.waves n
    else if n = 0 then []
    else [ Array.init n (fun k -> (k, None)) ]
  in
  List.iter
    (fun wave ->
      let out = Dpm_par.parallel_map_result ?domains solve_point wave in
      Array.iteri
        (fun slot r ->
          let k, _ = wave.(slot) in
          results.(k) <- Some r)
        out)
    schedule;
  List.combine weights
    (Array.to_list
       (Array.map
          (function Some r -> r | None -> assert false)
          results))

let sweep ?domains ?warm sys ~weights =
  List.map
    (fun (_, r) -> match r with Ok s -> s | Error exn -> raise exn)
    (sweep_r ?domains ?warm sys ~weights)

let default_weights =
  let lo = 0.1 and hi = 500.0 and n = 20 in
  List.init n (fun k ->
      lo *. ((hi /. lo) ** (float_of_int k /. float_of_int (n - 1))))

let pareto solutions =
  let dominated a b =
    (* b dominates a *)
    b.metrics.Analytic.power <= a.metrics.Analytic.power
    && b.metrics.Analytic.avg_waiting_requests
       <= a.metrics.Analytic.avg_waiting_requests
    && (b.metrics.Analytic.power < a.metrics.Analytic.power
       || b.metrics.Analytic.avg_waiting_requests
          < a.metrics.Analytic.avg_waiting_requests)
  in
  let survivors =
    List.filter
      (fun a -> not (List.exists (fun b -> dominated a b) solutions))
      solutions
  in
  List.sort_uniq
    (fun a b ->
      compare
        (a.metrics.Analytic.power, a.metrics.Analytic.avg_waiting_requests)
        (b.metrics.Analytic.power, b.metrics.Analytic.avg_waiting_requests))
    survivors

type randomized_solution = {
  bound : float;
  distributions : (int * float) list array;
  lagrange_multiplier : float;
  randomized_states : Sys_model.state list;
  metrics : Analytic.metrics;
}

let constrained_exact sys ~max_waiting_requests =
  if max_waiting_requests <= 0.0 then
    invalid_arg "Optimize.constrained_exact: bound must be positive";
  (* Primary cost: pure power (weight 0); secondary: C_sq. *)
  let model = Sys_model.to_ctmdp sys ~weight:0.0 in
  let secondary i _k =
    float_of_int (Sys_model.waiting_requests (Sys_model.state_of_index sys i))
  in
  match
    Dpm_ctmdp.Constrained_lp.solve model ~secondary ~bound:max_waiting_requests
  with
  | None -> None
  | Some r ->
      let gen, power_rates =
        Dpm_ctmdp.Constrained_lp.mixed_generator model
          r.Dpm_ctmdp.Constrained_lp.distributions
      in
      let metrics = Analytic.of_mixed sys ~gen ~power_rates in
      let distributions =
        Array.mapi
          (fun i dist ->
            let out = ref [] in
            Array.iteri
              (fun k p ->
                if p > 1e-6 then
                  out :=
                    ((Dpm_ctmdp.Model.choice model i k).Dpm_ctmdp.Model.action, p)
                    :: !out)
              dist;
            List.rev !out)
          r.Dpm_ctmdp.Constrained_lp.distributions
      in
      Some
        {
          bound = max_waiting_requests;
          distributions;
          lagrange_multiplier = r.Dpm_ctmdp.Constrained_lp.lagrange_multiplier;
          randomized_states =
            List.map (Sys_model.state_of_index sys)
              r.Dpm_ctmdp.Constrained_lp.randomized_states;
          metrics;
        }

let constrained ?(w_lo = 0.0) ?(w_hi = 1024.0) ?(bisection_steps = 40) sys
    ~max_waiting_requests =
  if max_waiting_requests <= 0.0 then
    invalid_arg "Optimize.constrained: bound must be positive";
  let feasible (s : solution) =
    s.metrics.Analytic.avg_waiting_requests <= max_waiting_requests
  in
  (* Grow the upper weight until the delay bound is met. *)
  let rec find_hi w attempts =
    let s = solve ~weight:w sys in
    if feasible s then Some (w, s)
    else if attempts = 0 then None
    else find_hi (w *. 2.0) (attempts - 1)
  in
  match find_hi w_hi 10 with
  | None -> None
  | Some (hi0, s_hi) ->
      let lo_solution = solve ~weight:w_lo sys in
      if feasible lo_solution then Some lo_solution
      else begin
        (* Invariant: lo infeasible, hi feasible with solution best. *)
        let rec bisect lo hi (best : solution) k =
          if k = 0 then Some best
          else begin
            let mid = 0.5 *. (lo +. hi) in
            let s = solve ~weight:mid sys in
            if feasible s then
              let best =
                if s.metrics.Analytic.power < best.metrics.Analytic.power then s
                else best
              in
              bisect lo mid best (k - 1)
            else bisect mid hi best (k - 1)
          end
        in
        bisect w_lo hi0 s_hi bisection_steps
      end
