(** Compressed-sparse-row (CSR) matrices.

    Generator matrices of composed power-managed systems are sparse:
    each state has O(|S|) outgoing transitions while the state space
    grows as |S| * Q.  The queue-capacity ablation (Q up to thousands)
    runs on this representation.

    Construction goes through a list of [(row, col, value)] triplets;
    duplicate coordinates are summed, explicit zeros are dropped. *)

type t

type triplet = int * int * float
(** [(row, col, value)]. *)

val of_triplets : rows:int -> cols:int -> triplet list -> t
(** [of_triplets ~rows ~cols ts] builds a CSR matrix.  Triplets with
    out-of-range coordinates raise [Invalid_argument]; duplicates are
    summed; entries that sum to exactly [0.] are kept out of the
    structure — they contribute neither to {!nnz} nor to {!iter_row}
    (pinned by a regression test). *)

val of_dense : Matrix.t -> t
(** [of_dense m] keeps the nonzero entries of [m]. *)

val to_dense : t -> Matrix.t
(** [to_dense s] expands to a dense matrix. *)

val rows : t -> int
(** Number of rows. *)

val cols : t -> int
(** Number of columns. *)

val nnz : t -> int
(** Number of structurally stored entries. *)

val get : t -> int -> int -> float
(** [get s i j] is entry [(i, j)] ([0.] when not stored).  Cost is
    O(log nnz(row i)) by binary search on the sorted column indices. *)

val iter_row : t -> int -> (int -> float -> unit) -> unit
(** [iter_row s i f] applies [f j x] to the stored entries of row [i]
    in increasing column order. *)

val iter : t -> (int -> int -> float -> unit) -> unit
(** [iter s f] applies [f i j x] to every stored entry. *)

val map : (float -> float) -> t -> t
(** [map f s] applies [f] to stored entries only (structural zeros are
    untouched), dropping entries that become [0.]. *)

val scale : float -> t -> t
(** [scale a s] multiplies the stored entries by [a]. *)

val add : t -> t -> t
(** [add a b] is the sparse sum.  Raises [Invalid_argument] on shape
    mismatch. *)

val transpose : t -> t
(** [transpose s] is the CSR transpose. *)

val mul_vec : t -> Vec.t -> Vec.t
(** [mul_vec s v] is [s v] (allocates the result; see
    {!mul_vec_into} for the allocation-free form). *)

val mul_vec_into : t -> Vec.t -> dst:Vec.t -> unit
(** [mul_vec_into s v ~dst] stores [s v] in [dst] without allocating.
    [dst] must not alias [v]; accumulation order matches {!mul_vec},
    so residuals computed either way agree bitwise.  Raises
    [Invalid_argument] on dimension mismatch. *)

val vec_mul : Vec.t -> t -> Vec.t
(** [vec_mul v s] is the row-vector product [v s]. *)

val mul : t -> t -> t
(** [mul a b] is the sparse matrix product. *)

val row_sums : t -> Vec.t
(** [row_sums s] is the vector of row sums. *)

val approx_equal : ?tol:float -> t -> t -> bool
(** Entrywise comparison (over the union of the sparsity patterns)
    within absolute tolerance [tol], default [1e-9]. *)

val pp : Format.formatter -> t -> unit
(** Prints the triplet list, e.g. [(0,1) 3.5; (2,0) -1]. *)
