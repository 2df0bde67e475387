(** Online policy adaptation: estimate the arrival rate, re-solve the
    CTMDP when it drifts, fall back to the incumbent when the solver
    fails.

    The paper's policies are optimal for one arrival rate; under a
    non-stationary workload any single policy is wrong most of the
    time.  This module closes the loop the paper sketches in
    Section III: an {!Estimator} watches the arrivals, and when the
    deployed rate leaves the estimate's confidence band the
    controller rebuilds the system at the estimated rate
    ({!Dpm_core.Sys_model.with_arrival_rate}) and re-solves with
    {!Dpm_core.Optimize.solve} inside {!Dpm_robust.Guard.run} —
    warm-started from the incumbent policy, memoized by
    {!Dpm_cache.Solve_cache}, and guarded by the deadline and fault
    hooks.  A failed re-solve keeps the
    incumbent policy, so the controller degrades to a static one
    rather than stalling the simulation.

    Estimated rates are snapped to a logarithmic grid
    ({!quantize_log}) before solving, so a wandering estimate hits
    the solve cache instead of triggering a fresh policy iteration
    per drift epsilon.

    Determinism: adaptation is driven purely by the simulated event
    stream and the (deterministic) solver, so replications are
    bit-identical at any {!Dpm_par} domain count — the solve cache is
    shared across domains, and warm-started solves equal cold ones
    (a property [Dpm_cache] pins with tests). *)

type stats = {
  mutable resolves : int;  (** re-solve attempts issued *)
  mutable resolve_failures : int;
      (** attempts that returned [Error] (deadline, injected fault,
          solver failure) — the incumbent was kept *)
  mutable policy_switches : int;  (** successful policy deployments *)
  mutable deployed_rate : float;
      (** arrival rate the deployed policy was solved at *)
}

type t
(** One adaptive power manager.  Owns mutable state (estimator,
    deployed policy); build one per simulation run, like any
    {!Dpm_sim.Controller}. *)

val quantize_log : ?per_efold:int -> float -> float
(** [quantize_log rate] snaps [rate] to the nearest point of a
    logarithmic grid with [per_efold] (default 16) points per factor
    of [e] — about 6% spacing, finer than the estimator's typical
    band.  Raises [Invalid_argument] on a non-positive or non-finite
    rate. *)

val create :
  ?weight:float ->
  ?estimator:Estimator.t ->
  ?min_observations:int ->
  ?cooldown:float ->
  ?deadline_s:float ->
  ?quantize:(float -> float) ->
  Dpm_core.Sys_model.t ->
  t
(** [create sys] solves the incumbent policy at [sys]'s nominal
    arrival rate (unguarded — a failure here is a configuration
    error and propagates) and prepares the adaptation loop:

    - [weight] (default 0): the [w] of the weighted cost, passed to
      every solve;
    - [estimator] (default a 50-gap {!Estimator.sliding_window});
    - [min_observations] (default 30): gaps required before the first
      adaptation may trigger;
    - [cooldown] (default 100 simulated seconds): minimum time
      between re-solve {e attempts}, successful or not;
    - [deadline_s]: optional wall-clock budget per re-solve
      ({!Dpm_robust.Guard.run}); an expired deadline is a failed
      attempt, i.e. the incumbent stays;
    - [quantize] (default {!quantize_log}[ ~per_efold:16]): the
      rate-snapping function applied before solving.

    [create] reads the ambient fault plan once
    ({!Dpm_robust.Fault.of_env}; a malformed [DPM_FAULTS] raises
    [Invalid_argument] here) and every re-solve ticks it, so
    [DPM_FAULTS=stall] exercises the fallback path
    deterministically. *)

val controller : ?name:string -> t -> Dpm_sim.Controller.t
(** [controller t] wraps [t] as a simulator controller
    ({!Dpm_sim.Controller.of_dynamic_policy}): every arrival feeds
    the estimator, every event gives the adaptation loop a chance to
    run, and decisions always come from the currently deployed
    policy.  [name] defaults to ["adaptive"]. *)

val stats : t -> stats
(** Live counters (the same numbers exported through the
    [adapt.*] {!Dpm_obs.Probe} metrics). *)

val estimator : t -> Estimator.t
(** The estimator driving [t] — e.g. to inspect {!Estimator.rate}
    after a run. *)

val deployed_actions : t -> int array
(** A copy of the currently deployed action table (indexed by
    {!Dpm_core.Sys_model.index}). *)

val last_provenance : t -> Dpm_trace.Provenance.t option
(** Provenance of the solve that produced the deployed policy — the
    incumbent's at creation, then the latest successful re-solve's
    (with [deadline_s] filled in from [create]).  A failed re-solve
    leaves it untouched, matching the policy it describes.  Each
    re-solve decision is also emitted as an [adapt.resolve] instant
    (with these fields as args) on the active [Dpm_trace.Recorder]. *)
