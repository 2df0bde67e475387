(** Lazy linear operators: Kronecker-structured generators without
    expansion.

    The composed SYS generator of a power-managed system is a tensor
    expression over small SP and SQ blocks (Section III).  Every
    materialized representation — dense [Matrix.t] or CSR [Sparse.t] —
    pays O(nnz) storage, triplet sorting, and transposition before the
    first sweep runs.  An {!t} instead stores the {e expression}: the
    small factor blocks plus the combinators (Kronecker product and
    sum, [sum], block grids), and runs Gauss-Seidel sweeps that walk
    the Kronecker factors directly.  Storage is the sum of the factor
    sizes (typically O(|S|{^2} + Q) against O(|S|·Q) expanded
    nonzeros), and no per-sweep allocation occurs.

    Row iteration may visit the same column more than once (e.g. the
    diagonal of a [kron_sum], or overlapping [sum] terms); every
    consumer in this module {e accumulates} contributions.

    Probe counter: [operator.sweeps] (Gauss-Seidel sweeps executed by
    {!gauss_seidel_steady}). *)

type t
(** A lazy linear operator over flat float64 state vectors. *)

(** {1 Leaves} *)

val dense : Matrix.t -> t
(** [dense m] wraps a dense block; row iteration skips zero entries. *)

val csr : Sparse.t -> t
(** [csr s] wraps a CSR block ({!Sparse.of_triplets} keeps zero-sum
    entries out of the structure, so its rows are genuinely sparse). *)

val diag : float array -> t
(** [diag d] is the square diagonal operator with entries [d]
    (zero entries are skipped on iteration).  The array is captured,
    not copied. *)

val identity : int -> t
(** [identity n] is the [n x n] identity as a diagonal leaf. *)

(** {1 Combinators} *)

val kron_prod : t -> t -> t
(** [kron_prod a b] is the Kronecker product [a (x) b]
    (Definition 4.4): with [b] of shape [n2 x m2], entry
    [(i1*n2 + i2, j1*m2 + j2)] is [a(i1,j1) * b(i2,j2)] — the second
    factor's index is minor. *)

val kron_sum : t -> t -> t
(** [kron_sum a b] is the Kronecker sum
    [a (x) I + I (x) b] of two {e square} operators ([Invalid_argument]
    otherwise).  Diagonal entries of both factors are emitted
    separately (consumers accumulate). *)

val sum : t -> t -> t
(** [sum a b] is [a + b].  Raises [Invalid_argument] on shape
    mismatch.  Overlapping entries are emitted separately. *)

val blocks : row_dims:int array -> col_dims:int array -> t option array array -> t
(** [blocks ~row_dims ~col_dims cells] is the block grid with
    [cells.(bi).(bj)] occupying block row [bi] (height
    [row_dims.(bi)]) and block column [bj] (width [col_dims.(bj)]);
    [None] cells are structurally zero.  Raises [Invalid_argument] if
    the grid is ragged or a cell's shape disagrees with its
    row/column dims. *)

(** {1 Shape} *)

val rows : t -> int
(** Number of rows. *)

(** {1 Stationary solve} *)

val gauss_seidel_steady :
  ?tol:float ->
  ?max_iter:int ->
  ?guard:(unit -> unit) ->
  ?init:Vec.t ->
  ?order:int array ->
  t ->
  Iterative.result
(** [gauss_seidel_steady op] solves [p op = 0], [sum p = 1] for the
    stationary row vector of a generator presented implicitly — the
    matrix-free counterpart of {!Iterative.gauss_seidel_steady} (same
    defaults and result record; [tol] bounds the L1 change of the
    normalized iterate between sweeps, [guard] is invoked before each
    sweep).  Column access comes from the {e structural} transpose
    (factors transposed, combinators kept), so the solve stays lazy.
    The operator must be square with strictly negative accumulated
    diagonal ([Invalid_argument] otherwise).

    One iteration is a {e symmetric} sweep: every row along [order]
    (default: index order; must be a permutation, [Invalid_argument]
    otherwise), then the same rows in reverse.  Gauss-Seidel moves
    probability one update-position per sweep against the update
    order, so on chains with long directional cascades (a queue
    draining through interleaved transfer states) the iteration count
    is governed by how well [order] aligns with the flow: a
    flow-aligned order (e.g. [Sys_model.sweep_order], which follows
    the queue coordinate of the Kronecker structure) makes the count
    essentially depth-independent, while a misaligned one degrades to
    one position per iteration. *)

(** {1 Materialization and cost accounting} *)

val to_dense : t -> Matrix.t
(** [to_dense op] expands to a dense matrix (accumulating repeats) —
    for tests and small instances only. *)

val stored_floats : t -> int
(** [stored_floats op] counts the float entries actually held by the
    expression tree (dense blocks count fully, CSR blocks their nnz)
    — the implicit representation's memory footprint. *)

val materialized_nnz : t -> int
(** [materialized_nnz op] is an upper bound on the nonzeros a CSR
    expansion of [op] would store ([nnz(A)·nnz(B)] for products,
    [nnz(A)·n_B + n_A·nnz(B)] for sums, …) — the memory the lazy
    representation saves; the peak-memory proxy reported by the
    scaling bench. *)
