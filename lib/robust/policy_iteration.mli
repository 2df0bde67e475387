(** Result-returning policy iteration — the guarded face of
    {!Dpm_ctmdp.Policy_iteration.solve}. *)

val validate_model : Dpm_ctmdp.Model.t -> (unit, Error.t) result
(** [Error (Invalid_model findings)] when {!Validate.model} reports
    any error-severity finding (counted as [robust.models_rejected]);
    shared by the other [solve_r] wrappers. *)

val solve_r :
  ?ref_state:int ->
  ?max_iter:int ->
  ?init:Dpm_ctmdp.Policy.t ->
  ?deadline_s:float ->
  ?faults:Fault.plan ->
  ?validate:bool ->
  Dpm_ctmdp.Model.t ->
  (Dpm_ctmdp.Policy_iteration.result, Error.t) result
(** [solve_r m] is {!Dpm_ctmdp.Policy_iteration.solve} with the full
    guardrail stack:

    - [validate] (default [true]): a {!Validate.model} pass first —
      all violations reported as [Error (Invalid_model _)] (this is
      what catches NaN costs smuggled in via [Model.map_costs], which
      skips re-validation by design);
    - [deadline_s]: a wall-clock budget ticked every PI iteration and
      inside every evaluation sweep ([Error (Deadline_exceeded _)]);
    - the iteration budget [max_iter] maps to
      [Error (Nonconvergent _)], exhaustion of the evaluation's
      Tikhonov ladder to [Error Singular];
    - a NaN/Inf scan of the returned gain and bias
      ([Error (Non_finite _)]);
    - [faults]: the fault plan's guard (injected stalls) — test
      harness only.

    Only runtime-fatal exceptions ([Out_of_memory], ...) can still
    escape. *)
