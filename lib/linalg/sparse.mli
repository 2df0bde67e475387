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
(** [of_triplets ~rows ~cols ts] builds a CSR matrix in
    O(rows + length ts) for rows of bounded length (a counting sort by
    row, then an insertion sort by column within each row).  Triplets
    with out-of-range coordinates raise [Invalid_argument]; duplicates
    are summed left to right in the order of [ts]; entries that sum to
    exactly [0.] are kept out of the structure — they contribute
    neither to {!nnz} nor to {!iter_row} (pinned by a regression
    test). *)

val with_diagonal : t -> (int -> float) -> t
(** [with_diagonal s d] is the square matrix [s] with entry [(i, i)]
    replaced by [d i] in every row, in O(rows + nnz); an exact [0.]
    leaves the diagonal entry out of the structure.  Raises
    [Invalid_argument] when [s] is not square. *)

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

val scale : float -> t -> t
(** [scale a s] multiplies the stored entries by [a], dropping those
    that become [0.]. *)

val vec_mul : Vec.t -> t -> Vec.t
(** [vec_mul v s] is the row-vector product [v s]. *)

val row_sums : t -> Vec.t
(** [row_sums s] is the vector of row sums. *)
