(** The composed power-managed system (SYS) — Section III.

    The SYS is the joint controllable Markov process of the SP and the
    SQ over the state space

    {v X  =  S x Q_stable   U   S_active x Q_transfer v}

    (a transfer state remembers which active mode just finished the
    service, because the pending switch leaves from that mode).  The
    PM's command in every state is the SP mode to switch to; actions
    are therefore labeled by mode indices, and "stay" is commanding
    the current mode.

    {2 Action validity (Section III constraints)}

    + In a stable state, an {e active} SP may only be commanded to
      active modes (service must not be interrupted);
    + in the full stable state [q_Q], an {e inactive} SP may not be
      commanded to stay or to another inactive mode with an equal or
      longer wakeup time — it must make progress toward serving (the
      strict reading keeps every policy's chain unichain, which the
      paper's connectivity argument requires);
    + in the full transfer state [q_{Q -> Q-1}], the SP may not be
      commanded to an active mode with a strictly longer service time.

    {2 Instantaneous self-switches}

    The paper sets [chi(s, s) = infinity].  A finite generator cannot
    hold that, so commanding "stay" in a transfer state resolves the
    transfer at the configurable [self_switch_rate] (default [1e6],
    DESIGN.md decision 1).  The analytic error this introduces is
    O(service rate / self_switch_rate) and is measured by the test
    suite. *)

open Dpm_linalg

type state =
  | Stable of int * int
      (** [Stable (s, i)]: SP in mode [s], [i] requests queued *)
  | Transfer of int * int
      (** [Transfer (s, i)]: SP leaving active mode [s] after a
          completion that found [i] requests ([1 <= i <= Q]) *)

type t

val create :
  ?self_switch_rate:float ->
  sp:Service_provider.t ->
  queue_capacity:int ->
  arrival_rate:float ->
  unit ->
  t
(** [create ~sp ~queue_capacity ~arrival_rate ()] composes the system.
    Raises [Invalid_argument] on nonpositive capacity, nonpositive or
    non-finite arrival rate, or nonpositive [self_switch_rate]. *)

val sp : t -> Service_provider.t
(** The service provider. *)

val queue_capacity : t -> int
(** [Q]. *)

val arrival_rate : t -> float
(** [lambda]. *)

val self_switch_rate : t -> float
(** The big-M rate standing in for the paper's instantaneous
    self-switch. *)

val with_arrival_rate : t -> float -> t
(** [with_arrival_rate sys lambda] is [sys] under a different input
    rate — used by the input-rate sweeps of Table 1 / Figure 5 and by
    the adaptive-workload example. *)

val num_states : t -> int
(** [|X| = S (Q+1) + |S_active| Q]. *)

val states : t -> state array
(** All states in index order. *)

val index : t -> state -> int
(** Flat index of a state; raises [Invalid_argument] for states
    outside [X] (e.g. a transfer state of an inactive mode). *)

val state_of_index : t -> int -> state
(** Inverse of {!index}. *)

val mode : state -> int
(** The SP mode component. *)

val waiting_requests : state -> int
(** The delay cost [C_sq(x)]: queue length in stable states, one
    less in transfer states. *)

val is_queue_full : t -> state -> bool
(** True for [q_Q] stable and [q_{Q -> Q-1}] transfer states — the
    states in which an arriving request is lost. *)

val valid_actions : t -> state -> int list
(** The action set [A_x] after the three constraints, ascending by
    mode index.  Always nonempty. *)

val transitions : t -> state -> action:int -> (int * float) list
(** [transitions sys x ~action] is the SYS rate row out of [x] under
    [action] (no validity filtering — callers wanting only legal
    rows should consult {!valid_actions}).  Targets are flat
    indices. *)

val power_cost : t -> state -> action:int -> float
(** [C_pow(x, a) = pow(s) + sum_{s'} s_{s,s'}(a) ene(s, s')] — the
    expected power draw including the rate-weighted switching
    energy. *)

val cost : t -> weight:float -> state -> action:int -> float
(** The paper's Eqn. (3.1):
    [Cost(x, a) = C_pow(x, a) + weight * C_sq(x)]. *)

val choices : t -> weight:float -> int -> Dpm_ctmdp.Model.choice list
(** [choices sys ~weight k] is the SYS choice table at state index
    [k]: one choice per valid action, with {!transitions} as rates and
    {!cost} as the cost rate.  It is the raw table, checked by
    nothing: {!to_ctmdp} hands it to [Model.create], and validation
    and the fault drills read (or corrupt) it before that. *)

val to_ctmdp : t -> weight:float -> Dpm_ctmdp.Model.t
(** The decision process handed to the solvers: [Model.create] over
    {!choices}.  Raises [Invalid_argument] on a negative or non-finite
    [weight]. *)

val generator_of_actions : t -> actions:(state -> int) -> Dpm_ctmc.Generator.t
(** [generator_of_actions sys ~actions] is the closed-loop chain
    under an arbitrary (not validity-checked) state-to-action map. *)

val uniform_generator : t -> action:int -> Matrix.t
(** The generator under the uniform command [action], built directly
    from {!transitions} — the reference for {!tensor_generator}. *)

val tensor_generator : t -> action:int -> Matrix.t
(** [tensor_generator sys ~action] is the SYS generator under the
    uniform command [action], built by the Section III tensor formula:
    small SP/SQ factor blocks (switch matrix, arrival superdiagonal,
    service and resolution couplings) combined by
    {!Dpm_linalg.Matrix.kron_prod} and {!Dpm_linalg.Matrix.kron_sum}
    into a 2x2 block grid, plus the exit-rate diagonal.  No
    permutation is needed: the canonical state order is already
    tensor-ordered.  Any number of active modes is supported.  The
    result equals {!uniform_generator} bitwise (pinned by tests at
    tolerance 0): the diagonal sums each row's exit rates in the
    direct build's column order. *)

val pp_state : t -> Format.formatter -> state -> unit
(** E.g. [(active, q2)] or [(active, q3>2)]. *)
