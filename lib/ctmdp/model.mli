(** Continuous-time Markov decision processes.

    A CTMDP (Section II of the paper: a controllable Markov process
    with rewards/costs) is, per state [i], a finite set of actions
    [A_i]; each action [a] selects an off-diagonal rate row
    [s_ij(a)] and a cost rate [c_i^a].  The cost rate is expected to
    already combine occupancy cost and rate-weighted transition
    costs, as in the paper's
    [c_s = pow(s) + sum_{s'} s_{s,s'}(a) ene(s,s')]; the {!Choice}
    record carries them pre-combined.

    Action labels are arbitrary integers chosen by the caller (the
    DPM layer uses the target power mode's index); the solvers treat
    them as opaque. *)

type choice = {
  action : int;  (** caller-chosen label *)
  rates : (int * float) list;
      (** off-diagonal transition rates [(target, rate)] *)
  cost : float;  (** expected cost rate [c_i^a] *)
}

type t

type report = code:string -> site:string -> string -> unit
(** Where a check sends each finding: a stable slug ([bad-rate]), the
    site (["state 3, choice 1"]) and a human-readable message.  The
    check decides what is wrong; the reporter decides what to do about
    it — {!create} raises at the first finding, [Dpm_robust.Validate]
    collects them all. *)

val check_state : num_states:int -> int -> choice array -> report -> unit
(** [check_state ~num_states i cs report] is the one check of a
    state's choice set, reporting in order: [empty-choice] when [cs]
    is empty; otherwise, choice by choice, [duplicate-action] when an
    earlier choice carries the same label, [non-finite-cost], then for
    each rate [bad-target] (out of [[0, num_states)] or a self-rate)
    or [bad-rate] (non-finite or negative).  Sites are formatted only
    when a finding fires. *)

val check : t -> report -> unit
(** {!check_state} over every state of a built model — it matters
    after {!map_costs}, which skips re-validation. *)

val create : num_states:int -> (int -> choice list) -> t
(** [create ~num_states choices_of] materializes and validates a
    CTMDP: [num_states] must be positive and every state must pass
    {!check_state}.  Raises [Invalid_argument] naming the first
    finding otherwise. *)

val num_states : t -> int
(** Number of states. *)

val num_choices : t -> int -> int
(** [num_choices m i] is [|A_i|]. *)

val choice : t -> int -> int -> choice
(** [choice m i k] is the [k]-th choice of state [i]
    (0-based; raises [Invalid_argument] out of range). *)

val choices : t -> int -> choice list
(** All choices of a state. *)

val find_choice : t -> int -> action:int -> int option
(** [find_choice m i ~action] is the index of the choice labeled
    [action] in state [i], if any. *)

val total_choices : t -> int
(** Sum over states of [|A_i|] — the size of the policy space's
    "alphabet" (the policy space itself has [prod |A_i|] members). *)

val max_exit_rate : t -> float
(** The largest total exit rate over all states and actions — the
    uniformization constant for the whole decision process. *)

val map_costs : (int -> choice -> float) -> t -> t
(** [map_costs f m] replaces each choice's cost by [f state choice] —
    used to re-weight the power/performance trade-off without
    rebuilding the transition structure. *)

val pp : Format.formatter -> t -> unit
(** Summary printer: states, choices, exit-rate range. *)
