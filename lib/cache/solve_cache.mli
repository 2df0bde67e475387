(** The process-wide policy-iteration result cache.

    Memoizes {!Dpm_ctmdp.Policy_iteration.solve} results keyed on the
    {!Fingerprint} of the model plus solver configuration.  An entry
    holds all a hit returns (result, digest, stationary distribution),
    so a hit is a lookup plus copies.  Keys leave out any warm start:
    policy iteration reaches an average-cost optimum from any start,
    so any cached optimum is a valid answer.  Entries store
    action {e labels}, not a [Policy.t]: a policy's internal
    choice indices are only meaningful for the exact model instance
    that produced it, so a hit rebuilds the policy against the
    requesting model through [Policy.of_actions] — valid for any
    structurally equal model whatever its choice-list ordering.

    The cache is a single mutex-guarded {!Lru} shared by every
    {!Dpm_par} domain.  Capacity resolves from the [DPM_CACHE]
    environment variable (a nonnegative integer) or defaults to 512;
    the CLI's [--cache] flag lands on {!set_capacity}.  Capacity 0
    disables the cache entirely: {!find} always misses, {!store}
    keeps nothing, and neither touches a counter, so benchmarks can
    measure cold solves.

    {!Dpm_obs} instrumentation: counters [cache.hits],
    [cache.misses], [cache.evictions]; gauges [cache.size],
    [cache.hit_ratio]. *)

val default_capacity : int
(** [DPM_CACHE] if set to a nonnegative integer, else 512. *)

val capacity : unit -> int
(** The current cache's capacity (0 when disabled). *)

val set_capacity : int -> unit
(** Replace the cache with a fresh one of the given capacity (raises
    [Invalid_argument] when negative).  Dropping to the same capacity
    still clears the contents. *)

val with_capacity : int -> (unit -> 'a) -> 'a
(** [with_capacity c f] runs [f] against a fresh cache of capacity
    [c], then restores the previous cache (contents included) even on
    exceptions.  The swap is process-wide, not scoped per domain — use
    it from the orchestrating domain around a whole parallel region
    (benchmarks use [with_capacity 0] to time cold solves). *)

val clear : unit -> unit
(** Drop every cached result and reset the counters ({!Lru.clear}). *)

val stats : unit -> Lru.stats
(** Hit/miss/eviction counters of the process-wide cache. *)

val hit_ratio : unit -> float
(** [hits / (hits + misses)], 0 when no lookups happened. *)

val find :
  key:string ->
  Dpm_ctmdp.Model.t ->
  (Dpm_ctmdp.Policy_iteration.result * Dpm_linalg.Vec.t option) option
(** [find ~key m] looks up [key = Fingerprint.key ~config m], which
    the caller then reuses for {!store}.  A hit returns the stored
    result, with a policy rebuilt for (and validated against) [m], a
    private copy of the bias, and provenance of origin [Cache_hit]
    carrying the stored digest; beside it, a private copy of the
    stored stationary distribution, if any. *)

val store :
  key:string ->
  ?stationary:Dpm_linalg.Vec.t ->
  Dpm_ctmdp.Model.t ->
  Dpm_ctmdp.Policy_iteration.result ->
  Dpm_ctmdp.Policy_iteration.result
(** [store ~key ?stationary m result] stamps [result]'s provenance
    fingerprint with the model digest ([Fingerprint.digest_of_key
    key]), stores copies of it and of [stationary] (its policy's
    stationary distribution) under [key], and returns the stamped
    result, also when the cache is disabled.  Store only results you
    would serve verbatim — [Dpm_core.Optimize] stores {e after} its
    multichain retry, so a degenerate first attempt is never
    memoized. *)
