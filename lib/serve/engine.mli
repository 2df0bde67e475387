(** The serving engine: incumbent policy, online re-optimization, and
    supervised degradation.

    An engine owns one configured system and answers state-to-action
    queries in O(1) off a deployed policy table, while a guarded
    re-solve loop keeps that table matched to the arrival rate the
    {!Dpm_adapt.Estimator} observes.  It is the daemon-grade sibling
    of {!Dpm_adapt.Adaptive}: the same drift-gated, warm-started,
    deadline-guarded re-solve path through {!Dpm_core.Optimize} and
    {!Dpm_cache}, plus the machinery a long-running process needs —

    - an explicit {!Health} state machine driven by re-solve
      outcomes, with the incumbent policy held on {e every} failure
      and the pinned always-on safe policy
      ({!Dpm_core.Policies.always_on}) deployed when no incumbent can
      be trusted: the engine never refuses a query;
    - exponential {!Backoff} with jitter spacing retries after
      failures, on top of the drift cooldown;
    - a watchdog deadline ([deadline_s], enforced by
      {!Dpm_robust.Guard.run} through the solver [?guard] hooks, with
      {!Dpm_robust.Fault} injection) that aborts wedged re-solves;
    - a bounded ingestion queue ({!Bqueue}) with drop accounting;
    - periodic atomic {!Checkpoint}s and crash recovery on restart.

    Single-threaded by design, like the rest of the repo: callers
    interleave {!offer_arrival} / {!pump} / {!decide} from one
    thread. *)

open Dpm_core

type t

val create :
  ?weight:float ->
  ?estimator:Dpm_adapt.Estimator.t ->
  ?min_observations:int ->
  ?cooldown:float ->
  ?deadline_s:float ->
  ?checkpoint_path:string ->
  ?checkpoint_every:int ->
  ?queue_capacity:int ->
  ?backoff:Backoff.t ->
  ?faults:Dpm_robust.Fault.plan ->
  ?quantize:(float -> float) ->
  Sys_model.t ->
  t
(** [create sys] builds an engine serving [sys].

    Startup resolves the incumbent policy in this order:
    + [checkpoint_path] names a readable checkpoint whose fingerprint
      matches [sys]/[weight], whose action table validates against
      {!Dpm_core.Sys_model.valid_actions}, and whose estimator
      decodes: {e full restore} — deployed policy, rate, health and
      estimator continue where the crashed daemon stopped;
    + the checkpoint exists but fails any of those checks: the engine
      starts in [Safe_mode] on the pinned always-on policy (the
      stored table cannot be trusted against this state space) with a
      fresh estimator — it still answers every query;
    + no (or an unparsable) checkpoint: a cold solve of [sys] at its
      nominal rate under fault injection only (no deadline — a
      failure here is a configuration problem, but the engine still
      starts, in [Safe_mode]).

    [weight] (default 0) is the Eqn. (3.1) trade-off weight served.
    [estimator] defaults to a 50-gap sliding window.
    [min_observations] (default 30) gates drift detection;
    [cooldown] (default 100, sim-time) spaces re-solve attempts;
    [deadline_s] (default none) is the per-re-solve wall-clock watchdog
    budget; [checkpoint_every] (default 64) is the arrival count
    between automatic checkpoints (only with [checkpoint_path]);
    [queue_capacity] (default 1024) bounds the ingestion queue;
    [backoff] defaults to {!Backoff.create}[ ()]; [faults] defaults
    to {!Dpm_robust.Fault.of_env}[ ()] so [DPM_FAULTS] reaches the
    daemon's re-solve guard; [quantize] (default
    {!Dpm_adapt.Adaptive.quantize_log} at 16 steps per e-fold) snaps
    re-solve targets for cache reuse.

    Raises [Invalid_argument] on [min_observations < 2], a negative
    or non-finite [cooldown], [checkpoint_every < 1], or
    [queue_capacity < 1]. *)

val offer_arrival : t -> at:float -> bool
(** Enqueue an arrival at absolute sim-time [at] for the next
    {!pump}.  [false] means the bounded queue was full and the event
    was dropped (counted), or [at] was not finite — backpressure the
    transport may surface.  O(1); never solves. *)

val pump : t -> unit
(** Drain the ingestion queue: fold each arrival into the estimator,
    advance the engine clock, and run the re-solve schedule (drift
    gate, cooldown + backoff, re-solve fenced by
    {!Dpm_robust.Guard.run}, health transition,
    periodic checkpoint).  Call before reading answers that should
    reflect all offered events. *)

val decide : t -> Sys_model.state -> int
(** The deployed action for [state] — one array read off the
    incumbent table.  Raises [Invalid_argument] for a state outside
    the system's state space. *)

val health : t -> Health.state
(** The health ladder's current state ({!Health.state}), advanced by
    the same sim-clock as {!now}. *)

val degraded_fraction : t -> float
(** See {!Health.degraded_fraction}; sim-time based. *)

val consecutive_failures : t -> int
(** {!Backoff.failures} of the re-solve retry ladder. *)

val last_error : t -> Dpm_robust.Error.t option
(** The typed error of the most recent failed re-solve; [None] after
    a success (or before any attempt). *)

val last_provenance : t -> Dpm_trace.Provenance.t option
(** Provenance of the solve that produced the deployed policy;
    [None] when serving the pinned safe policy. *)

val deployed_rate : t -> float
(** The arrival rate the deployed policy was solved at. *)

val deployed_actions : t -> int array
(** A copy of the deployed policy table. *)

val now : t -> float
(** The engine's sim-clock: the latest arrival time pumped. *)

val sys : t -> Sys_model.t
(** The system the engine decides over — the state space [decide]
    indexes and every re-solve rebuilds its model from. *)

val restored : t -> bool
(** Whether startup fully restored from a checkpoint. *)

type stats = {
  events_ingested : int;  (** arrivals accepted (incl. pre-restart) *)
  queue_drops : int;  (** arrivals shed by the bounded queue *)
  decisions : int;  (** queries answered *)
  resolves : int;  (** re-solve attempts *)
  resolve_failures : int;
  policy_switches : int;  (** attempts that deployed a new table *)
  checkpoints : int;  (** successful saves this process *)
  checkpoint_failures : int;
  health_transitions : int;
}

val stats : t -> stats
(** Lifetime counters, including those restored from a checkpoint. *)

val checkpoint : t -> (string, string) result
(** Save a checkpoint now; [Ok path] on success.  [Error] when no
    [checkpoint_path] was configured or the write failed (counted as
    a checkpoint failure; the engine keeps serving). *)
