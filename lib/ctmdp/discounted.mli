(** Discounted-cost CTMDP solver.

    Section II's second optimality criterion: minimize
    [int_0^inf e^{-at} c(t) dt] for a discount rate [a > 0].
    Theorem 2.2 guarantees a stationary a-optimal policy.  The
    continuous-time problem reduces to a discounted discrete-time MDP
    by uniformization: with rate [L], discount factor
    [beta = L / (a + L)] and per-step cost [c^a / (a + L)], and is
    then solved by policy iteration (evaluation by direct LU solve of
    [(I - beta P^p) v = c^p]).

    Theorem 2.3's limit claim — as [a -> 0] the a-optimal policy
    maximizes the average criterion — is exercised in the test suite
    by comparing this solver at small [a] against
    {!Policy_iteration}. *)

open Dpm_linalg

type result = {
  policy : Policy.t;
  values : Vec.t;  (** expected discounted cost from each state *)
  iterations : int;
}

val evaluate : Model.t -> discount:float -> Policy.t -> Vec.t
(** [evaluate m ~discount p] is the discounted value vector of a
    fixed policy.  [discount] must be positive. *)

val solve : ?max_iter:int -> ?init:Policy.t -> Model.t -> discount:float -> result
(** [solve m ~discount] runs discounted policy iteration to the exact
    optimum (finite convergence).  [max_iter] defaults to 1000;
    exceeding it raises {!Solver_error.Nonconvergent}. *)
