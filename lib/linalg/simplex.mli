(** Linear programming: dense two-phase primal simplex.

    Built to reproduce the paper's efficiency claim against the linear
    programming formulation of policy optimization used by the
    DAC'98 baseline [11] (see {!Dpm_ctmdp.Lp_solver}); the problems
    there are small (tens of variables), so a dense tableau method
    with Bland's anti-cycling rule is entirely adequate — and easy to
    verify.

    Problems are in standard equality form:

    {v minimize c . x   subject to   A x = b,  x >= 0 v}

    Inequalities are the caller's business (add slack variables). *)

exception Cycling of int
(** Raised (with the pivot count) when a phase exhausts its pivot
    budget {e twice}: once under the default conditioning-friendly
    ratio-test tie-break and once more after the automatic retry under
    strict Bland's rule.  Exact-arithmetic cycling is impossible under
    Bland, so this signals floating-point cycling or a budget far too
    small for the problem. *)

type outcome =
  | Optimal of {
      x : Vec.t;  (** an optimal vertex *)
      objective : float;  (** [c . x] at the optimum *)
      dual : Vec.t;
          (** one dual variable per equality constraint; for the MDP
              LP these are the relative values / gain *)
    }
  | Infeasible  (** no [x >= 0] satisfies [A x = b] *)
  | Unbounded  (** the objective decreases without bound *)

val minimize :
  ?max_pivots:int ->
  ?tol:float ->
  ?guard:(unit -> unit) ->
  c:Vec.t ->
  a:Matrix.t ->
  Vec.t ->
  outcome
(** [minimize ~c ~a b] solves the standard-form program.  [tol]
    (default 1e-9) separates zero from nonzero in ratio tests and
    feasibility checks; [max_pivots] (default 100_000) bounds each
    phase.  A phase that blows the budget is retried once from its
    current (still feasible) basis under strict Bland's anti-cycling
    rule with a fresh budget; a second blow-out raises {!Cycling}.
    [guard] (default a no-op) is invoked before every pivot and may
    raise to abort the solve — the deadline hook used by
    [Dpm_robust].  Raises [Invalid_argument] on shape mismatches and
    on a redundant (linearly dependent) constraint row. *)

val check_feasible : ?tol:float -> a:Matrix.t -> b:Vec.t -> Vec.t -> bool
(** [check_feasible ~a ~b x] tests [A x = b] (within [tol], default
    1e-7) and [x >= -tol] — used by the tests and available to
    callers wanting a posteriori verification. *)
