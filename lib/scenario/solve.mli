(** One solve driver for every scenario family.

    The scenario builders ({!Phased}, {!Polling}, {!Batching}) all
    compile to a plain {!Dpm_ctmdp.Model.t}, so one driver covers
    them: validation and guarded policy iteration through
    [Dpm_robust.Policy_iteration.solve_r], memoization through the
    process-wide [Dpm_cache.Solve_cache] (keyed on the structural
    fingerprint, so e.g. an Erlang-1 phased model and its base system
    share one entry), and provenance enriched with the model hash and
    origin exactly as [Dpm_core.Optimize] does for the paper system.

    {!stationary_gain} is the independent cross-check: it re-derives
    the average cost of a fixed policy from the closed-loop chain's
    stationary distribution (GTH elimination — a numerical path
    disjoint from policy iteration's bias equations), which the test
    suite and benches compare against the solver's gain. *)

type solution = {
  actions : int array;  (** optimal action label per state *)
  gain : float;  (** optimal average cost rate *)
  iterations : int;
      (** policy-iteration count (on a cache hit, the original solve's) *)
  provenance : Dpm_trace.Provenance.t;
      (** solve provenance with the fingerprint and origin filled *)
}

val solve :
  ?deadline_s:float ->
  Dpm_ctmdp.Model.t ->
  (solution, Dpm_robust.Error.t) result
(** Validate, look up the cache, otherwise run guarded policy
    iteration (under the optional wall-clock budget) and memoize.
    All failures arrive as the robustness layer's typed errors —
    nothing raises but runtime-fatal exceptions. *)

val sweep :
  ?domains:int ->
  ?deadline_s:float ->
  weights:float list ->
  (float -> Dpm_ctmdp.Model.t) ->
  (float * (solution, Dpm_robust.Error.t) result) list
(** [sweep ~weights build] solves [build w] for every weight on the
    {!Dpm_par} pool ([?domains] as everywhere else; default
    sequential).  Results land in input order whatever the domain
    count, and each point is fenced: a failing weight yields its
    [Error] slot while the others still solve. *)

val closed_loop :
  Dpm_ctmdp.Model.t ->
  actions:int array ->
  Dpm_ctmc.Generator.t * Dpm_linalg.Vec.t
(** The chain and cost-rate vector induced by following the given
    action labels — the scenario-layer counterpart of the paper
    system's [generator_of_actions].  Raises [Invalid_argument] when
    some state does not offer its requested label. *)

val stationary_gain :
  ?guard:(unit -> unit) -> Dpm_ctmdp.Model.t -> actions:int array -> float
(** The average cost rate of the fixed policy, computed as [pi . c]
    from the closed-loop stationary distribution
    ({!Dpm_ctmc.Steady_state.solve} — GTH with transient-state
    classification).  Raises [Steady_state.Not_irreducible] when the
    closed loop has no unique limiting distribution. *)
