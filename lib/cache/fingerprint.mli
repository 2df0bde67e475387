(** Canonical structural fingerprints of CTMDP models.

    Two models that describe the same decision process — same states,
    same action sets, same rates and costs — must map to the same
    cache key even when their choice lists or rate lists were built in
    a different order.  The fingerprint therefore encodes a canonical
    form: per state, choices sorted by action label (labels are unique
    within a state by {!Dpm_ctmdp.Model.create} validation); per
    choice, rates sorted by target state with zero rates dropped and
    duplicate targets merged by summation in bit-pattern order.
    Floats enter the encoding as their exact IEEE-754 bits
    ([Int64.bits_of_float]) — no rounding, so a model perturbed in the
    last ulp gets a different key.

    State {e indices} are part of the canonical form on purpose: a
    relabeling of states is a genuinely different model to every
    state-indexed consumer (policies, bias vectors, analytic
    metrics), so it must not collide.

    The solver configuration (reference state, iteration budget) is
    folded into the key as a prefix: the same model solved under a
    different configuration may legitimately produce a different
    trace, so the cache keys on both. *)

type config = {
  ref_state : int;  (** bias reference state (solver default 0) *)
  max_iter : int;  (** policy-iteration budget (solver default 1000) *)
}

val default_config : config
(** [{ ref_state = 0; max_iter = 1000 }] — mirrors the
    {!Dpm_ctmdp.Policy_iteration.solve} defaults. *)

val model : Dpm_ctmdp.Model.t -> string
(** The canonical binary encoding of a model (no configuration).
    Equal iff the models are structurally equal up to within-state
    choice/rate ordering. *)

val key : ?config:config -> Dpm_ctmdp.Model.t -> string
(** [key ~config m] is the full cache key: a format-version magic,
    the encoded configuration, then {!model}.  Keys are compared
    byte-for-byte by the cache, so a cache hit is collision-proof —
    the 64-bit hash below is only a diagnostic digest. *)

val hash64 : string -> int64
(** FNV-1a 64-bit hash of an arbitrary string. *)

val model_hash : Dpm_ctmdp.Model.t -> int64
(** [hash64 (model m)] — a compact digest for logs and tests. *)

val digest_of_key : string -> int64
(** [digest_of_key (key ~config m)] is [model_hash m], hashed off the
    key's model part, so a caller holding the key does not encode the
    model again. *)
