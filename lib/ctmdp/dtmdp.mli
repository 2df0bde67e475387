(** Discrete-time Markov decision processes (average cost).

    The baseline formulation of Paleologo et al. [11], which the paper
    argues against: time is sliced into intervals of length [L], the
    system changes state only at slice boundaries, and the power
    manager issues a command {e every} slice.  This module provides
    the generic solver; {!Dpm_core.Discrete_baseline} builds the
    DPM-specific model.

    Policy iteration for the average-cost criterion on unichain
    models: evaluation solves [g + v_i = c_i + sum_j P_ij v_j] with
    [v_ref = 0]; improvement is greedy in
    [c_i^a + sum_j P^a_ij v_j]. *)

open Dpm_linalg

type choice = {
  action : int;  (** caller-chosen label *)
  probs : (int * float) list;
      (** full transition row [(target, probability)], including the
          self-transition; must be nonnegative and sum to 1 within
          1e-9 (duplicates are summed) *)
  cost : float;  (** cost incurred per slice *)
}

type t

val create : num_states:int -> (int -> choice list) -> t
(** [create ~num_states choices_of] materializes and validates the
    model (nonempty action sets, valid targets, stochastic rows,
    distinct labels).  Raises [Invalid_argument] otherwise. *)

val num_states : t -> int
(** Number of states. *)

val num_choices : t -> int -> int
(** Size of a state's action set. *)

val choice : t -> int -> int -> choice
(** [choice m i k] is the [k]-th choice of state [i]. *)

type policy = int array
(** Choice index per state. *)

val policy_of_actions : t -> int array -> policy
(** Resolve per-state action labels to choice indices. *)

val actions_of_policy : t -> policy -> int array
(** The labels selected by a policy. *)

type evaluation = { gain : float; bias : Vec.t }

val evaluate : ?ref_state:int -> t -> policy -> evaluation
(** Average cost per slice and relative values of a fixed policy.
    Raises [Lu.Singular] on multichain policies. *)

val transition_matrix : t -> policy -> Matrix.t
(** The row-stochastic closed-loop matrix of a policy. *)

val stationary_distribution : t -> policy -> Vec.t
(** Stationary distribution of the policy's chain (unichain), via the
    embedded CTMC trick [Q = P - I]. *)

type result = { policy : policy; gain : float; bias : Vec.t; iterations : int }

val solve : ?ref_state:int -> ?max_iter:int -> ?init:policy -> t -> result
(** Average-cost policy iteration to a fixed point.  [max_iter]
    (default 1000) exhausted raises {!Solver_error.Nonconvergent}. *)
