let ( let* ) = Guard.( let* )

let validate_model m =
  match Diagnostic.errors (Validate.model m) with
  | [] -> Ok ()
  | errs ->
      Dpm_obs.Probe.incr "robust.models_rejected";
      Error (Error.Invalid_model errs)

let solve_r ?ref_state ?max_iter ?init ?deadline_s ?faults
    ?(validate = true) m =
  let guard =
    Guard.compose [ Fault.guard_opt faults; Guard.of_deadline deadline_s ]
  in
  let* () = if validate then validate_model m else Ok () in
  let* r =
    Guard.run ~stage:"policy_iteration" (fun () ->
        Dpm_ctmdp.Policy_iteration.solve ?ref_state ?max_iter ?init ~guard m)
  in
  let* () =
    Guard.check_finite ~site:"policy_iteration.gain"
      r.Dpm_ctmdp.Policy_iteration.gain
  in
  let* () =
    Guard.check_finite_vec ~site:"policy_iteration.bias"
      r.Dpm_ctmdp.Policy_iteration.bias
  in
  Ok r
