(** Typed failures of the CTMDP solvers.

    The solvers raise these, not [Failure], so a caller matches the
    failure class on a constructor instead of reading a message:
    [Dpm_robust.Error.of_exn] maps each one onto its taxonomy, and
    [Dpm_core.Optimize.constrained] skips a weight whose policy
    iteration does not converge.  Each exception prints as the message
    the solver used to fail with. *)

exception
  Nonconvergent of { solver : string; iterations : int; residual : float }
(** An iteration budget ran out.  [solver] names the entry point
    (e.g. ["Policy_iteration.solve"]), [iterations] is the budget
    spent, and [residual] the final convergence measure — NaN for the
    policy-improvement loops, whose stopping test is a stable policy
    and has no measure. *)

exception Lp_infeasible of string
(** A linear program that a well-formed model keeps feasible had no
    feasible point; the payload is the message, which names the
    entry point. *)

exception Lp_unbounded of string
(** A linear program that a well-formed model keeps bounded was
    unbounded; the payload is the message, which names the entry
    point. *)
