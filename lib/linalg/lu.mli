(** LU factorization with partial pivoting and related direct solvers.

    Used by the simplex, the discounted and absorbing-chain solvers and
    [Steady_state.lu_solve]; policy evaluation factors on band storage
    ({!Band}), whose arithmetic this kernel defines and is tested
    against.  The factorization
    is Doolittle LU with row partial pivoting; singular systems are
    reported through the [Singular] exception, carrying the pivot
    column at which elimination broke down. *)

exception Singular of int
(** Raised when a zero (or numerically negligible) pivot is met; the
    payload is the elimination step. *)

type t
(** A factorization [P A = L U] of a square matrix [A]. *)

val decompose : ?pivot_tol:float -> Matrix.t -> t
(** [decompose a] factorizes the square matrix [a].  Raises
    {!Singular} when a pivot's absolute value falls below
    [pivot_tol] (default [1e-13] scaled by the largest entry of [a]).
    Raises [Invalid_argument] if [a] is not square. *)

val solve_factored : t -> Vec.t -> Vec.t
(** [solve_factored lu b] solves [A x = b] using the factorization. *)

val solve_transposed_factored : t -> Vec.t -> Vec.t
(** [solve_transposed_factored lu b] solves [A^T x = b] on the
    factorization of [A], without factoring the transpose. *)

val solve : ?pivot_tol:float -> Matrix.t -> Vec.t -> Vec.t
(** [solve a b] is [solve_factored (decompose a) b]. *)

val solve_many : ?pivot_tol:float -> Matrix.t -> Vec.t list -> Vec.t list
(** [solve_many a bs] solves for several right-hand sides, factoring
    [a] only once. *)

val det : t -> float
(** [det lu] is the determinant of the factored matrix (product of the
    pivots with the permutation sign). *)

val inverse : ?pivot_tol:float -> Matrix.t -> Matrix.t
(** [inverse a] is the matrix inverse computed column by column.
    Raises {!Singular} when [a] is singular. *)

val residual_norm : Matrix.t -> Vec.t -> Vec.t -> float
(** [residual_norm a x b] is [norm_inf (a x - b)], a cheap a
    posteriori accuracy check used throughout the test suite. *)
