(** Exact constrained policy optimization (Section IV of the paper).

    The paper's primary problem statement is {e constrained}: minimize
    average power subject to a bound on the average number of waiting
    requests.  The weighted-sum route ({!Dpm_core.Optimize.constrained}
    bisecting on [w]) only reaches policies on the {e lower convex
    hull} of the power/delay frontier; the LP over occupation measures
    solves the constrained problem exactly, at the price of an
    optimal policy that may be {e randomized} in at most one state
    (a classical result for a single constraint):

    {v minimize    sum x_{i,a} c1_i^a
       subject to  balance + normalization (as in Lp_solver)
                   sum x_{i,a} c2_i^a <= bound,   x >= 0 v}

    The returned per-state action distributions are the conditional
    measures [x_{i,a} / sum_a x_{i,a}]; zero-measure (transient)
    states fall back to the greedy action under the Lagrangian cost
    [c1 + lambda* c2], with [lambda*] read off the bound constraint's
    dual — the completion that keeps the policy optimal. *)

type result = {
  objective : float;  (** optimal average primary cost *)
  secondary : float;  (** the achieved average secondary cost *)
  distributions : float array array;
      (** [distributions.(i).(k)]: probability of choice [k] in state
          [i]; rows sum to 1 *)
  lagrange_multiplier : float;
      (** the bound constraint's shadow price (>= 0): the marginal
          primary cost of tightening the bound *)
  randomized_states : int list;
      (** states where the optimal policy genuinely mixes (at most
          one for a single constraint, barring degeneracy) *)
}

val solve :
  Model.t -> secondary:(int -> int -> float) -> bound:float -> result option
(** [solve m ~secondary ~bound] minimizes the model's cost subject to
    the stationary average of [secondary state choice_index] being at
    most [bound].  [None] when no stationary (possibly randomized)
    policy meets the bound; {!Solver_error.Lp_unbounded} when the LP
    is unbounded (impossible for a well-formed model). *)

val mixed_generator :
  Model.t -> float array array -> Dpm_ctmc.Generator.t * Dpm_linalg.Vec.t
(** [mixed_generator m distributions] is the closed-loop chain of a
    randomized stationary policy together with its mixed primary
    cost-rate vector — rate rows and costs averaged under each
    state's action distribution. *)
