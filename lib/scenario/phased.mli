(** Phase-type service expansion of the composed SYS.

    The paper's SYS (see {!Dpm_core.Sys_model}) serves requests in
    exponential time.  This builder replaces the active mode's service
    distribution with a {!Phase_type.t} by state-space expansion: each
    {e serving} state [Stable(active, i >= 1)] is replicated once per
    service phase, transitions {e entering} service split their rate
    across the initial phase distribution, and the completion
    transition to the transfer band fires at the current phase's
    absorption rate.  Everything else — inactive modes, transfer
    states, the Section III action constraints, the big-M self-switch
    — is delegated to the underlying [Sys_model], so the expanded
    decision process solves through the unmodified
    [Policy_iteration]/[Dpm_cache]/[Dpm_robust] stack.

    {2 Indexing}

    The first [Sys_model.num_states] indices are the base states in
    [Sys_model]'s canonical order, with serving states standing for
    phase 0; the [(phases - 1) * Q] extra phase copies are appended
    after.  With a one-phase distribution there are no extra states
    and the construction is {e bit-identical} to
    [Sys_model.to_ctmdp] — same fingerprint, so the two share cache
    entries (pinned by tests).

    {2 Restrictions}

    The SP must have exactly one active mode: with several active
    modes an active-to-active switch would have to map phases between
    distributions of different shapes. *)

type state =
  | Base of Dpm_core.Sys_model.state
      (** a [Sys_model] state; serving states are phase 0 *)
  | Serving of int * int
      (** [Serving (i, phase)]: the active mode serving with [i]
          requests present, [phase >= 1] *)

type t

val create :
  ?self_switch_rate:float ->
  sp:Dpm_core.Service_provider.t ->
  queue_capacity:int ->
  arrival_rate:float ->
  service:Phase_type.t ->
  unit ->
  t
(** Compose the expanded system.  Raises [Invalid_argument] when the
    SP does not have exactly one active mode, or on the same bad
    parameters as [Sys_model.create]. *)

val sys : t -> Dpm_core.Sys_model.t
(** The embedded base system (its exponential service rate is only
    used when [service] has a single phase standing for it). *)

val service : t -> Phase_type.t
(** The service distribution. *)

val num_states : t -> int
(** [Sys_model.num_states + (phases - 1) * Q]. *)

val state_of_index : t -> int -> state
(** Decode a flat index. *)

val index : t -> state -> int
(** Inverse of {!state_of_index}; raises [Invalid_argument] outside
    the state space. *)

val waiting_requests : state -> int
(** The delay cost [C_sq(x)] of a state. *)

val to_ctmdp : t -> weight:float -> Dpm_ctmdp.Model.t
(** The decision process under the Eqn. (3.1) weighted cost, ready
    for any solver in the repository. *)

val pp_state : t -> Format.formatter -> state -> unit
(** E.g. [(active, q3, ph2)] for an expanded serving state. *)
