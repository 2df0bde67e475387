(** Named policy families (Section V's comparison baselines).

    A policy here is a plain function [Sys_model.state -> int] giving
    the commanded mode; {!to_ctmdp_policy} converts it to a solver
    policy when an evaluation against a {!Dpm_ctmdp.Model} is needed.

    The {e time-out} family of Section V is deliberately absent: a
    time-out decision depends on how long the SP has been idle, which
    is not a function of the SYS state, so it is not a stationary
    Markov policy in this state space.  Time-outs live in the
    simulator ({!Dpm_sim.Controller.timeout}) only. *)

val always_on : Sys_model.t -> Sys_model.state -> int
(** Never power down: inactive modes are told to wake to the fastest
    active mode; active modes hold. *)

val greedy : Sys_model.t -> Sys_model.state -> int
(** Section V's greedy baseline: deactivate the instant the system
    empties (the transfer state that leaves the queue empty commands
    {!Service_provider.deepest_sleep}), activate the instant a request
    waits ({!Service_provider.fastest_active}). *)

val n_policy : Sys_model.t -> n:int -> Sys_model.state -> int
(** The N-policy of Heyman [12] (Section V): deactivate when the
    system empties; activate when [n] requests wait.  [n] is clamped
    to [[1, Q]] ([q_Q] forces a wake-up by constraint (2) anyway).
    Serves exhaustively while active. *)

val actions_array : Sys_model.t -> (Sys_model.state -> int) -> int array
(** Tabulate a policy over the state space, indexed by state index. *)

val check_valid : Sys_model.t -> (Sys_model.state -> int) -> (unit, string) result
(** Check the policy respects every state's
    {!Sys_model.valid_actions}; [Error] names the first offending
    state. *)

val to_ctmdp_policy :
  Sys_model.t -> Dpm_ctmdp.Model.t -> (Sys_model.state -> int) -> Dpm_ctmdp.Policy.t
(** Resolve the policy's action labels against a model built by
    {!Sys_model.to_ctmdp} (any weight) with [Policy.of_actions].  Raises
    [Invalid_argument] if the policy commands an action outside a
    state's valid set, which is exactly the set of labels the model
    offers there. *)
