(** Policy optimization by linear programming.

    The approach of the DAC'98 baseline [11], transplanted to
    continuous time: over {e occupation measures} [x_{i,a} >= 0]
    (the long-run rate-weighted fraction of time spent in state [i]
    taking action [a]), the average-cost problem is the LP

    {v minimize    sum_{i,a} c_i^a x_{i,a}
       subject to  sum_{i,a} q^a_{ij} x_{i,a} = 0     (balance, j <> ref)
                   sum_{i,a} x_{i,a} = 1              (normalization)
                   x >= 0 v}

    (one balance constraint is dropped — they are linearly dependent —
    which pins the corresponding dual at zero, matching the
    [v_ref = 0] convention of policy iteration; the remaining duals
    are the relative values and the normalization dual is the gain).

    The paper states the policy-iteration algorithm "tends to be more
    efficient than the linear programming method"; the ABL6 bench
    measures exactly that on this implementation. *)

open Dpm_linalg

type result = {
  policy : Policy.t;
  gain : float;  (** optimal average cost (the LP objective) *)
  occupation : float array array;
      (** [occupation.(i).(k)]: measure of state [i], choice [k] *)
  bias : Vec.t;
      (** relative values recovered from the LP duals, [v_ref = 0] *)
  provenance : Dpm_trace.Provenance.t;
      (** method ["lp"], iterations = simplex pivots taken. *)
}

val solve :
  ?ref_state:int -> ?max_pivots:int -> ?guard:(unit -> unit) -> Model.t -> result
(** [solve m] builds and solves the occupation-measure LP.  The
    policy picks, per state, the choice carrying positive measure;
    states with zero measure (transient under every optimal policy)
    take the greedy action with respect to the recovered bias —
    exactly policy iteration's improvement rule, so the returned
    policy is average-cost optimal for unichain models.  Raises
    {!Solver_error.Lp_infeasible} or {!Solver_error.Lp_unbounded}
    if the LP is infeasible or unbounded (impossible for a
    well-formed model).  [max_pivots] and [guard] are forwarded to
    {!Dpm_linalg.Simplex.minimize}: exhausting the pivot budget twice
    (once under Dantzig pricing, once under the Bland anti-cycling
    retry) raises [Simplex.Cycling], and [guard] may raise to abort —
    the [Dpm_robust] deadline hook. *)
