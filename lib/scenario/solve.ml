type solution = {
  actions : int array;
  gain : float;
  iterations : int;
  provenance : Dpm_trace.Provenance.t;
}

let solve ?deadline_s model =
  let t0 = Dpm_obs.Probe.now () in
  (* Same provenance contract as [Dpm_core.Optimize.solve]: whatever
     path answered, the record identifies the model and the origin. *)
  let finish ~origin (result : Dpm_ctmdp.Policy_iteration.result) =
    {
      actions =
        Dpm_ctmdp.Policy.actions model result.Dpm_ctmdp.Policy_iteration.policy;
      gain = result.Dpm_ctmdp.Policy_iteration.gain;
      iterations = result.Dpm_ctmdp.Policy_iteration.iterations;
      provenance =
        {
          result.Dpm_ctmdp.Policy_iteration.provenance with
          Dpm_trace.Provenance.fingerprint =
            Dpm_cache.Fingerprint.model_hash model;
          origin;
          wall_s = Dpm_obs.Probe.now () -. t0;
        };
    }
  in
  match Dpm_cache.Solve_cache.find model with
  | Some result -> Ok (finish ~origin:Dpm_trace.Provenance.Cache_hit result)
  | None -> (
      match Dpm_robust.Policy_iteration.solve_r ?deadline_s model with
      | Error _ as e -> e
      | Ok result ->
          Dpm_cache.Solve_cache.store model result;
          Ok
            (finish
               ~origin:
                 result.Dpm_ctmdp.Policy_iteration.provenance
                   .Dpm_trace.Provenance.origin result))

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
