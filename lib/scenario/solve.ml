type solution = {
  actions : int array;
  gain : float;
  iterations : int;
  provenance : Dpm_trace.Provenance.t;
}

let solve ?deadline_s model =
  let t0 = Dpm_obs.Probe.now () in
  (* Same provenance contract and single encoding as
     [Dpm_core.Optimize.solve]. *)
  let key = Dpm_cache.Fingerprint.key model in
  let finish (result : Dpm_ctmdp.Policy_iteration.result) =
    (* Bound first so [wall_s] covers it. *)
    let actions =
      Dpm_ctmdp.Policy.actions model result.Dpm_ctmdp.Policy_iteration.policy
    in
    {
      actions;
      gain = result.Dpm_ctmdp.Policy_iteration.gain;
      iterations = result.Dpm_ctmdp.Policy_iteration.iterations;
      provenance =
        {
          result.Dpm_ctmdp.Policy_iteration.provenance with
          Dpm_trace.Provenance.wall_s = Dpm_obs.Probe.now () -. t0;
          deadline_s;
        };
    }
  in
  match Dpm_cache.Solve_cache.find ~key model with
  | Some (result, _) -> Ok (finish result)
  | None -> (
      (* Validation first: it catches what [Model.map_costs], which
         skips re-validation by design, can smuggle in (NaN costs). *)
      match Dpm_robust.Diagnostic.errors (Dpm_robust.Validate.model model) with
      | _ :: _ as errs ->
          Dpm_obs.Probe.incr "robust.models_rejected";
          Error (Dpm_robust.Error.Invalid_model errs)
      | [] ->
          Dpm_robust.Guard.run ~stage:"policy_iteration" ?deadline_s
            (fun guard ->
              let result = Dpm_ctmdp.Policy_iteration.solve ~guard model in
              Dpm_robust.Guard.check_finite ~site:"policy_iteration.gain"
                result.Dpm_ctmdp.Policy_iteration.gain;
              Dpm_robust.Guard.check_finite_vec ~site:"policy_iteration.bias"
                result.Dpm_ctmdp.Policy_iteration.bias;
              finish (Dpm_cache.Solve_cache.store ~key model result)))

let sweep ?domains ?deadline_s ~weights build =
  (* Fenced per grid point like [Optimize.sweep_r]: [solve] already
     returns a result, so the pool maps plain values and order
     determinism gives bit-identical output at any domain count. *)
  let out =
    Dpm_par.parallel_map_list ?domains
      (fun w -> (w, solve ?deadline_s (build w)))
      weights
  in
  out

let closed_loop model ~actions =
  let policy = Dpm_ctmdp.Policy.of_actions model actions in
  ( Dpm_ctmdp.Policy.generator model policy,
    Dpm_ctmdp.Policy.cost_vector model policy )

let stationary_gain ?guard model ~actions =
  let gen, costs = closed_loop model ~actions in
  let pi = Dpm_ctmc.Steady_state.solve ?guard gen in
  Dpm_ctmc.Steady_state.expected_value pi (fun i -> costs.(i))
