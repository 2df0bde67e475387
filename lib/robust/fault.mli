(** Deterministic, seed-driven fault injection.

    The robustness layer's claims ("every injected fault becomes a
    typed error or a verified fallback, never an uncaught exception")
    are only testable if faults can be injected on demand.  This
    module corrupts model inputs and matrices, and simulates solver
    stalls, from an explicit {!plan} — a seed plus a list of fault
    kinds — so every test run reproduces bit-for-bit.

    Faults are {e off} unless a plan is passed explicitly or the
    [DPM_FAULTS] environment variable is set (see {!of_env}); the
    production paths pay nothing. *)

open Dpm_linalg

type kind =
  | Nan_rate  (** one transition rate becomes NaN *)
  | Negative_rate  (** one transition rate becomes -1 *)
  | Nan_cost  (** one choice's cost rate becomes NaN *)
  | Empty_choice  (** one state loses all its choices *)
  | Bad_target  (** one choice gains a rate to an out-of-range state *)
  | Duplicate_action  (** one state lists the same action label twice *)
  | Zero_row  (** one matrix row is zeroed (absorbing / singular) *)
  | Nan_entry  (** one matrix entry becomes NaN *)
  | Duplicate_row
      (** one matrix row overwrites another — a forced singular
          factorization *)
  | Stall
      (** every guard tick busy-waits ~2ms — an injected solver stall
          that only a wall-clock deadline can catch *)

val all_kinds : kind list
(** Every kind, in declaration order. *)

val kind_to_string : kind -> string
(** Stable slug, e.g. ["nan-rate"] — the [DPM_FAULTS] vocabulary. *)

val kind_of_string : string -> kind option
(** Inverse of {!kind_to_string}, ignoring case and surrounding
    blanks; [None] on an unknown slug. *)

type plan = { seed : int64; kinds : kind list }

val plan : ?seed:int64 -> kind list -> plan
(** [seed] defaults to [0xD1CE].  Each kind draws from its own
    sub-seed, so adding a kind to a plan does not move where the
    others strike. *)

val has : plan -> kind -> bool
(** Whether the plan injects the given kind. *)

val of_env : unit -> plan option
(** Parse [DPM_FAULTS] (comma-separated slugs, e.g.
    ["nan-rate,stall"]) and [DPM_FAULTS_SEED] (an integer).  [None]
    when unset or empty; [Invalid_argument] on an unknown slug or a
    malformed seed. *)

val corrupt_choices :
  plan ->
  num_states:int ->
  (int -> Dpm_ctmdp.Model.choice list) ->
  int ->
  Dpm_ctmdp.Model.choice list
(** Wrap a choice function with the plan's model-level corruptions
    (the matrix- and stall-kinds are ignored here).  Victim states
    are drawn deterministically from the plan seed.  Each applied
    corruption increments [fault.injected.<kind>]. *)

val corrupt_matrix : plan -> Matrix.t -> Matrix.t
(** Apply the plan's matrix-level corruptions to a copy (the
    choice-level and stall kinds are ignored here). *)

val stall : unit -> unit
(** One guard tick of {!Stall}: busy-waits {!stall_seconds}, counted
    as [fault.injected.stall].  {!Guard.run} ticks it when its plan
    has {!Stall}. *)

val stall_seconds : float
(** The per-tick busy-wait of {!Stall} (0.002). *)
