(** Relative value iteration on the uniformized chain.

    An independent route to the average-cost optimum, used to
    cross-check policy iteration (and benchmarked against it in the
    ablation suite).  The CTMDP is uniformized with a common rate
    [L >= max_{i,a} exit_rate], turning each choice into a stochastic
    row [P^a = I + Q^a/L] with per-step cost [c^a / L]; relative value
    iteration then contracts in span seminorm:

    {v v'(i) = min_a (c_i^a / L + sum_j P^a_ij v(j)),  v' := v' - v'(ref) v}

    The average cost per unit time is [L] times the per-step gain. *)

open Dpm_linalg

type result = {
  policy : Policy.t;
  gain_lower : float;  (** lower bound on the optimal average cost *)
  gain_upper : float;  (** upper bound on the optimal average cost *)
  values : Vec.t;      (** final relative values *)
  iterations : int;
  converged : bool;
  provenance : Dpm_trace.Provenance.t;
      (** method ["value_iteration"], residual = final gain-bound
          span, warm/cold origin from [init_values]. *)
}

val solve :
  ?tol:float ->
  ?max_iter:int ->
  ?init_values:Vec.t ->
  ?guard:(unit -> unit) ->
  Model.t ->
  result
(** [solve m] iterates until the span of the value difference
    [v_{k+1} - v_k] falls below [tol] (default 1e-9) or [max_iter]
    (default 1e6) sweeps are spent.  The optimal gain lies in
    [[gain_lower, gain_upper]] (standard span bounds, scaled back to
    continuous time); the returned policy is greedy with respect to
    the final values.  [init_values] (default all zeros) warm-starts
    the sweep — e.g. with the [values] of a neighboring instance's
    result, which cuts iterations without changing the fixed point;
    it is re-centered on state 0 on entry and must be finite and of
    the model's dimension ([Invalid_argument] otherwise; counted on
    the [value_iteration.warm_starts] probe).  [guard] (default
    no-op) is invoked before each sweep and may raise to abort — the
    [Dpm_robust] deadline hook.  The model's choices are flattened
    once into flat cost/rate arrays and every sweep runs over two
    flat float arrays, so a sweep allocates nothing (pinned by a
    test). *)
