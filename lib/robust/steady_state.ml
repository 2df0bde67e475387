let ( let* ) = Guard.( let* )

let of_matrix_r ?tol m =
  match Diagnostic.errors (Validate.generator_matrix ?tol m) with
  | [] ->
      Guard.run ~stage:"generator" (fun () ->
          Dpm_ctmc.Generator.of_matrix ?tol m)
  | errs ->
      Dpm_obs.Probe.incr "robust.models_rejected";
      Error (Error.Invalid_model errs)

let solve_r ?deadline_s ?faults g =
  let guard =
    Guard.compose [ Fault.guard_opt faults; Guard.of_deadline deadline_s ]
  in
  let* p =
    Guard.run ~stage:"steady_state" (fun () ->
        Dpm_ctmc.Steady_state.solve ~guard g)
  in
  let* () = Guard.check_finite_vec ~site:"steady_state.distribution" p in
  (* Exact-residual re-verification: one mat-vec, catches an
     elimination that "succeeded" into garbage. *)
  let residual = Dpm_ctmc.Steady_state.residual g p in
  let scale = Float.max 1.0 (Dpm_ctmc.Generator.uniformization_rate g) in
  if residual <= 1e-7 *. scale then Ok p
  else begin
    Dpm_obs.Probe.incr "robust.verification_failures";
    Error (Error.Nonconvergent { iterations = 0; residual })
  end
