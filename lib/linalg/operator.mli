(** Lazy linear operators: Kronecker-structured generators without
    expansion.

    The composed SYS generator of a power-managed system is a tensor
    expression over small SP and SQ blocks (Section III).  An {!t}
    stores the {e expression}: the small factor blocks plus the
    combinators (Kronecker product and sum, [sum], block grids).
    Storage is the sum of the factor sizes (typically O(|S|{^2} + Q)
    against O(|S|·Q) expanded nonzeros).  {!to_dense} expands it — the
    Section III tensor formula checked against the direct builders,
    and the joint fleet generator of [Dpm_fleet.Joint].

    Row iteration may visit the same column more than once (e.g. the
    diagonal of a [kron_sum], or overlapping [sum] terms); the
    expansion {e accumulates} contributions. *)

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
