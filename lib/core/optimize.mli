(** Policy optimization — Section IV and Figure 3 of the paper.

    The workflow: build the CTMDP of the composed system with the
    weighted cost of Eqn. (3.1), run average-cost policy iteration,
    and read the optimal stationary policy off the result.  Sweeping
    the weight [w] traces the power/delay trade-off curve of
    Figure 4; the delay-constrained problem of Section IV (minimum
    power subject to a bound on the average number of waiting
    requests) is solved by bisection on [w] over that monotone
    frontier. *)

type solution = {
  weight : float;  (** the [w] of Eqn. (3.1) used *)
  actions : int array;  (** optimal action per state index *)
  gain : float;  (** optimal average total cost per unit time *)
  iterations : int;  (** policy-iteration sweeps *)
  metrics : Analytic.metrics;  (** analytic metrics of the policy *)
  provenance : Dpm_trace.Provenance.t;
      (** full solve provenance: the built CTMDP's structural
          fingerprint, cache-hit/warm/cold origin, eval path,
          iterations, final residual, robustness counters, wall
          clock, and the [weight]/[arrival_rate] the solve ran at. *)
}

val solve :
  ?weight:float ->
  ?init_actions:int array ->
  ?guard:(unit -> unit) ->
  Sys_model.t ->
  solution
(** [solve sys ~weight] minimizes
    [C_pow + weight * C_sq] (default weight 0, pure power).  The
    reported [gain] is the weighted objective; [metrics] carries the
    separated power and delay terms.  [guard] (default no-op) is
    threaded into the policy-iteration loop and may raise to abort —
    the [Dpm_robust] deadline hook.

    Results are memoized in {!Dpm_cache.Solve_cache} (keyed on the
    built CTMDP's structural fingerprint, encoded once per call); a
    repeat solve of the same system and weight returns the cached
    policy, gain, iteration count and digest, with the metrics read
    off the cached stationary distribution (bit-identical to cold;
    an entry stored by [Dpm_scenario.Solve] has none, so a hit on it
    solves for one).  Only post-retry
    results are stored, so the multichain tie-breaking below is never
    bypassed.  [init_actions] (e.g. a neighboring grid point's
    [actions]) warm-starts policy iteration; an action table that is
    the wrong size or requests a label some state lacks falls back to
    a cold start ({!Dpm_cache.Warm.init_of_actions}). *)

val action_of : Sys_model.t -> solution -> Sys_model.state -> int
(** Read a solution as a policy function. *)

val solve_at :
  ?weight:float ->
  ?init_actions:int array ->
  ?guard:(unit -> unit) ->
  Sys_model.t ->
  arrival_rate:float ->
  (Sys_model.t * solution, exn) result
(** [solve_at sys ~arrival_rate] rebuilds [sys] at a new arrival rate
    ({!Sys_model.with_arrival_rate}) and runs {!solve} on it, with
    failure containment: any solver exception (including a
    [Dpm_robust] deadline or injected fault raised through [guard])
    comes back as [Error] instead of propagating, so an online
    re-optimizer can fall back to its incumbent policy.  Asynchronous
    resource exhaustion ([Out_of_memory], [Stack_overflow]) is still
    re-raised.  The returned system shares the state indexing of
    [sys] — only rates change — so [init_actions] from a policy
    solved at another rate is a valid warm start, and the returned
    [actions] index into either system interchangeably. *)

val sweep_r :
  ?domains:int ->
  ?guard:(unit -> unit) ->
  ?warm:bool ->
  Sys_model.t ->
  weights:float list ->
  (float * (solution, exn) result) list
(** [sweep_r sys ~weights] solves for each weight (in the given
    order), with per-point failure containment: a grid point whose
    solve raises yields [(w, Error exn)] while every other point
    still returns [(w, Ok solution)] — there is no global abort, and
    each failure increments the [par.item_failures] {!Dpm_obs}
    counter (via {!Dpm_par.parallel_map_result}).  Weights are solved
    on the {!Dpm_par} pool ([domains] defaults to
    {!Dpm_par.default_domains}); the result order and every solution
    are identical whatever the domain count.

    [warm] (default [true]) runs the grid in the deterministic
    {!Dpm_cache.Warm.waves} schedule, warm-starting each point from
    an already-solved neighbor's policy — typically halving the total
    policy-iteration count of a sweep.  The schedule depends only on
    the grid size, never on the domain count, so determinism is
    preserved; a failed or invalid seed degrades that point to a cold
    start.  [~warm:false] restores fully independent cold solves. *)

val sweep :
  ?domains:int ->
  ?warm:bool ->
  Sys_model.t ->
  weights:float list ->
  solution list
(** [sweep sys ~weights] is {!sweep_r} with failures re-raised: the
    exception of the {e earliest} failing weight propagates (after
    all other points finished).  Figure 4 uses a geometric ladder of
    weights. *)

val default_weights : float list
(** A 20-point geometric ladder from 0.1 to 500 — a reasonable
    default for tracing the trade-off curve of a watts-scale SP. *)

val pareto : solution list -> solution list
(** Filter to the non-dominated set under
    [(power, avg_waiting_requests)], sorted by increasing power. *)

type randomized_solution = {
  bound : float;  (** the delay bound requested *)
  distributions : (int * float) list array;
      (** per state index: [(action, probability)] pairs (probability
          > 1e-6 only) *)
  lagrange_multiplier : float;
      (** shadow price of the bound — the [w] at which the weighted
          problem would produce this trade-off *)
  randomized_states : Sys_model.state list;
      (** where the policy genuinely mixes (at most one state for a
          single constraint, barring degeneracy) *)
  metrics : Analytic.metrics;  (** exact metrics of the mixed chain *)
}

val constrained_exact :
  Sys_model.t -> max_waiting_requests:float -> randomized_solution option
(** The paper's Section IV problem solved {e exactly} by linear
    programming over occupation measures
    ({!Dpm_ctmdp.Constrained_lp}): minimum average power subject to
    the average number of waiting requests staying within the bound.
    Unlike {!constrained} (weight bisection), which can only return
    deterministic policies on the frontier's lower convex hull, the
    LP optimum may randomize in one state and therefore reaches every
    point of the hull — it is never worse, and strictly better
    whenever the bound falls in a concave gap of the deterministic
    frontier.  Realize the mixture in practice with
    {!Dpm_sim.Controller.time_shared} between the two adjacent
    deterministic policies.  [None] when even full power cannot meet
    the bound. *)

val constrained :
  ?w_lo:float ->
  ?w_hi:float ->
  ?bisection_steps:int ->
  Sys_model.t ->
  max_waiting_requests:float ->
  solution option
(** [constrained sys ~max_waiting_requests] finds (approximately) the
    minimum-power policy whose stationary average number of waiting
    requests is at most the bound: it grows [w_hi] (default 1024,
    doubling up to 2^20) until feasible, then bisects [bisection_steps]
    times (default 40) and returns the cheapest feasible solution
    seen.  [None] when even the largest weight cannot meet the bound
    (the SP simply cannot keep up). *)
