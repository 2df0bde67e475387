(** Average-cost policy iteration for CTMDPs — the paper's solver
    (Section IV, Figure 3; the algorithm of Howard [10] extended to
    continuous time by Miller [9]).

    The evaluation step solves the relative-value (bias) equations of
    the policy's chain,

    {v c_i - g + sum_j G^p_ij v_j = 0,   v_ref = 0 v}

    for the gain [g] (average cost per unit time) and relative values
    [v]; the improvement step replaces each state's action by one
    minimizing the test quantity [c_i^a + sum_j s^a_ij v_j], keeping
    the incumbent on ties.  On a finite unichain model this converges
    to an average-cost-optimal stationary policy in finitely many
    iterations. *)

open Dpm_linalg

type evaluation = {
  gain : float;  (** average cost per unit time, [g] *)
  bias : Vec.t;  (** relative values [v], [v_ref = 0] *)
}

type step = {
  iteration : int;
  policy_actions : int array;  (** action labels, by state *)
  evaluation : evaluation;
  changed_states : int;  (** states whose action the improvement changed *)
}

type result = {
  policy : Policy.t;
  gain : float;
  bias : Vec.t;
  iterations : int;
  trace : step list;  (** chronological *)
  provenance : Dpm_trace.Provenance.t;
      (** how this solve went: method, eval path, iterations, final
          residual, warm/cold origin, Tikhonov rungs, sparse
          fallbacks, wall clock.  The fingerprint is [0L] here; the
          cache layer ([Dpm_cache], [Optimize]) fills it in. *)
}

val evaluate : ?ref_state:int -> Model.t -> Policy.t -> evaluation
(** [evaluate m p] solves the relative-value equations of policy [p].
    [ref_state] (default 0) is the state pinned to bias 0.  The system
    is factored by banded LU ({!Dpm_linalg.Band}) in a reverse
    Cuthill-McKee order of the model's transition graph (the union
    over every action), oriented so [ref_state] comes late, with the
    gain unknown as the dense last column: O(n b{^2}) for
    half-bandwidth b.  Raises [Lu.Singular] if the policy's chain is
    not unichain (the DPM action constraints rule this out for models
    built by [Dpm_core]). *)

val evaluate_robust : ?ref_state:int -> Model.t -> Policy.t -> evaluation
(** Like {!evaluate}, but when the policy's chain is multichain (the
    exact system is singular) it re-solves through a Tikhonov
    escalation ladder: a restart rate toward the reference state
    (which restores unichain structure at an O(eps)-relative bias
    error) growing from 1e-9 to 1e-3 of the model's rate scale, one
    rung per failed attempt.  A rung is accepted only when its LU
    factorization succeeds {e and} the solution verifies — a small
    residual on the perturbed system plus an exact-system residual
    consistent with the deliberate O(eps * |x|) bias.  Exhausting the
    ladder re-raises [Lu.Singular].  {!solve} uses this internally so
    multichain policies encountered mid-iteration do not abort the
    optimization.  The band system is assembled once, directly from
    [Model.choice]; rungs patch its diagonal in place and verify
    against a pristine copy of the band.
    Probe counters: [policy_iteration.robust_retries] (entries into
    the ladder), [policy_iteration.tikhonov_rungs] (rungs tried),
    gauge [policy_iteration.tikhonov_exact_residual]. *)

type fallback =
  | Unreachable_reference of { unreached : int; states : int }
      (** [unreached] of the [states] states cannot reach the
          reference state, so the pinned bias system is singular.  A
          multichain policy does this, but so does a unichain one
          whose reference state is transient. *)
  | Absorbing_state of { state : int }  (** [state] has no exit rate *)
  | Not_converged  (** the stationary sweep hit [max_iter] *)
  | Degenerate_iterate
      (** the stationary iterate summed to zero or a non-finite value *)
  | Residual_too_large of { residual : float; bound : float }
      (** the candidate missed the exact relative-value equations:
          [residual] (max-norm) above [bound = 1e-7 * max 1 |c|_inf] *)
(** Why {!evaluate_iterative} declined a policy. *)

val fallback_to_string : fallback -> string
(** One-line description of a fallback reason, as logged and as the
    [reason] argument of the [pi.sparse_fallback] trace instant. *)

val evaluate_iterative :
  ?ref_state:int ->
  ?tol:float ->
  ?max_iter:int ->
  ?guard:(unit -> unit) ->
  Model.t ->
  Policy.t ->
  (evaluation, fallback) Stdlib.result
(** Iterative evaluation without a fallback.  The policy's rows are
    flattened once into index/rate arrays, read straight off the
    [Model.choice] rate lists, and two Gauss-Seidel stages sweep them
    over allocation-free flat float-array iterates: the stationary
    distribution first (gain = pi . c), then the bias from the system
    with [v_ref] pinned to 0, rows normalized by their exit rate.  A
    reverse reachability pass runs first, since the pinned system is
    singular when some state cannot reach the reference state.  The
    candidate is accepted only if it satisfies the exact
    relative-value equations to [1e-7 * max 1 |c|_inf]; otherwise the
    reason comes back as [Error].  [tol] (default 1e-12, scaled to the
    system's magnitude in the bias stage) and [max_iter] (default
    [max 10_000 (50 n)]) tune the sweeps.  [guard] (default no-op) is
    ticked once per sweep in both stages and may raise to abort; its
    exception propagates.  Probe counter
    [policy_iteration.eval_sweeps] (sweeps across both stages). *)

val evaluate_sparse :
  ?ref_state:int ->
  ?tol:float ->
  ?max_iter:int ->
  ?guard:(unit -> unit) ->
  Model.t ->
  Policy.t ->
  evaluation
(** {!evaluate_iterative} with {!evaluate_robust} (banded LU) behind
    it: any [Error] is logged at debug level, recorded as a
    [pi.sparse_fallback] trace instant, and answered by the dense
    path, so the result is always within solver tolerance of the
    dense answer.  A [guard] exception propagates rather than
    triggering the fallback.  Probe counters:
    [policy_iteration.sparse_evals], [policy_iteration.sparse_fallbacks]
    and, per reason, [policy_iteration.sparse_fallbacks.<reason>] with
    [<reason>] one of [unreachable_reference], [absorbing_state],
    [not_converged], [degenerate_iterate], [residual_too_large];
    gauge [policy_iteration.eval_path] (1 sparse, 0 dense). *)

val improve : Model.t -> evaluation -> incumbent:Policy.t -> Policy.t * int
(** [improve m eval ~incumbent] returns the greedy policy with
    respect to [eval.bias] and the number of states whose action
    changed.  Ties (within an absolute tolerance of 1e-9) keep the
    incumbent's choice, which guarantees termination. *)

val solve :
  ?ref_state:int ->
  ?max_iter:int ->
  ?init:Policy.t ->
  ?guard:(unit -> unit) ->
  Model.t ->
  result
(** [solve m] runs policy iteration from [init] (default: each
    state's first choice) until the policy is stable.  [max_iter]
    defaults to 1000; exceeding it raises
    {!Solver_error.Nonconvergent} with [iterations = max_iter] (it
    indicates a modeling bug or round-off cycling — PI must terminate
    on finite models in exact arithmetic).  The band
    order is computed once per solve and serves every iteration.
    Each policy is evaluated by {!evaluate_robust} (banded LU) on
    models below 192 states and by {!evaluate_sparse} on larger ones;
    the route is recorded in the provenance [eval_path] (["dense"]
    for the direct route, or ["sparse"]).  [guard] (default no-op) is invoked at the top of
    every iteration {e and} threaded into the evaluation sweeps, so a
    deadline fires mid-evaluation rather than only between policies —
    the [Dpm_robust] deadline hook. *)

val brute_force : Model.t -> Policy.t * float
(** [brute_force m] evaluates every stationary policy and returns a
    gain-minimal one.  Exponential; only for cross-checking tiny
    models in tests.  Policies whose chain is multichain (evaluation
    fails) are skipped. *)
