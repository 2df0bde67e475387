(** Generator (transition-rate) matrices of continuous-time Markov
    chains — Section II of the paper, Eqns. (2.1)-(2.4).

    A generator [G] is a square matrix whose off-diagonal entries
    [s_ij >= 0] are transition rates and whose diagonal entries make
    every row sum to zero ([s_ii = -sum_{j<>i} s_ij], the paper's
    "differential matrix" property).  The smart constructors enforce
    these invariants so the solvers can rely on them. *)

open Dpm_linalg

type t
(** An immutable, validated generator. *)

exception Invalid of string
(** Raised by the validating constructors with a human-readable
    description of the violated invariant. *)

val of_rates : dim:int -> (int * int * float) list -> t
(** [of_rates ~dim rates] builds a generator from off-diagonal
    transition rates [(i, j, rate)], computing the diagonal, as one
    CSR matrix in O(dim + length rates).  Duplicate [(i, j)] rates
    are summed in list order.
    Raises {!Invalid} on negative rates, out-of-range indices, or
    [i = j] entries (self-rates are implied, not stored). *)

val of_matrix : ?tol:float -> Matrix.t -> t
(** [of_matrix m] validates a full matrix: square, nonnegative
    off-diagonal, row sums within [tol] (default [1e-9]) of zero.
    The row sums are then corrected exactly by recomputing the
    diagonal.  Raises {!Invalid} otherwise. *)

val dim : t -> int
(** Number of states. *)

val get : t -> int -> int -> float
(** [get g i j] is the rate entry [(i, j)] (negative on the
    diagonal). *)

val exit_rate : t -> int -> float
(** [exit_rate g i] is [-get g i i], the total rate out of state
    [i]. *)

val iter_off_diagonal : t -> (int -> int -> float -> unit) -> unit
(** [iter_off_diagonal g f] applies [f i j rate] to every positive
    off-diagonal rate. *)

val iter_row : t -> int -> (int -> float -> unit) -> unit
(** [iter_row g i f] applies [f j rate] to every positive
    off-diagonal rate leaving state [i]. *)

val to_matrix : t -> Matrix.t
(** Dense copy of the full generator (with diagonal). *)

val to_sparse : t -> Sparse.t
(** Sparse copy of the full generator (with diagonal). *)

val is_dense_backed : t -> bool
(** True when the generator stores a dense matrix internally:
    {!of_matrix} does, {!of_rates} never does (its CSR rows hold the
    same values, so every solver gives the same bits on either). *)

val uniformization_rate : t -> float
(** [uniformization_rate g] is [max_i exit_rate g i], the smallest
    valid uniformization constant. *)

val uniformized : ?rate:float -> t -> Matrix.t
(** [uniformized ~rate g] is the row-stochastic matrix
    [P = I + G/rate] of the uniformized discrete-time chain.  [rate]
    defaults to [1.02 * uniformization_rate g] (strictly above the
    maximum exit rate, so the chain is aperiodic).  Raises
    [Invalid_argument] if [rate] is not at least the uniformization
    rate. *)

val uniformized_sparse : ?rate:float -> t -> Sparse.t
(** Sparse variant of {!uniformized}. *)

val embedded_dtmc : t -> Matrix.t
(** [embedded_dtmc g] is the jump-chain matrix: row [i] is
    [s_ij / exit_rate i]; absorbing states ([exit_rate = 0]) get a
    self-loop of probability 1. *)

val scale : float -> t -> t
(** [scale a g] multiplies every rate by [a > 0] (time rescaling);
    raises [Invalid_argument] for [a <= 0]. *)

val pp : Format.formatter -> t -> unit
(** Pretty-printer (dense rendering). *)
