(** Dense, row-major matrices of floats.

    This is the workhorse representation for the small-to-medium
    generator matrices of the paper's system model (a few tens to a few
    hundreds of states).  Larger state spaces use {!Sparse}.

    Entries are stored in a single flat [float array]; [get]/[set] are
    bounds-checked through the array primitives.  All binary operations
    raise [Invalid_argument] on dimension mismatch. *)

type t

val create : int -> int -> t
(** [create rows cols] is the zero matrix of shape [rows x cols]. *)

val init : int -> int -> (int -> int -> float) -> t
(** [init rows cols f] has entry [f i j] at row [i], column [j]. *)

val identity : int -> t
(** [identity n] is the [n x n] identity matrix. *)

val diag : Vec.t -> t
(** [diag v] is the square matrix with [v] on the diagonal. *)

val of_arrays : float array array -> t
(** [of_arrays rows] builds a matrix from an array of equal-length
    rows.  Raises [Invalid_argument] if rows are ragged or empty. *)

val to_arrays : t -> float array array
(** [to_arrays m] is the inverse of {!of_arrays}. *)

val rows : t -> int
(** Number of rows. *)

val cols : t -> int
(** Number of columns. *)

val get : t -> int -> int -> float
(** [get m i j] is entry [(i, j)]. *)

val set : t -> int -> int -> float -> unit
(** [set m i j x] stores [x] at entry [(i, j)]. *)

val update : t -> int -> int -> (float -> float) -> unit
(** [update m i j f] replaces entry [(i, j)] by [f] of itself. *)

val copy : t -> t
(** [copy m] is a fresh matrix equal to [m]. *)

val set_block : t -> row:int -> col:int -> t -> unit
(** [set_block m ~row ~col b] overwrites the entries of [m] under [b]
    placed with its top-left corner at [(row, col)] — one cell of a
    block grid.  Raises [Invalid_argument] when [b] does not fit. *)

val to_row_major : t -> float array
(** [to_row_major m] is a fresh copy of the entries in row-major
    order: entry [(i, j)] sits at index [i * cols m + j].  The copy
    never aliases [m]; dense kernels that are O(n^3) index it directly
    instead of calling {!get}/{!set} per entry. *)

val row : t -> int -> Vec.t
(** [row m i] is a fresh copy of row [i]. *)

val col : t -> int -> Vec.t
(** [col m j] is a fresh copy of column [j]. *)

val transpose : t -> t
(** [transpose m] is the transposed matrix. *)

val map : (float -> float) -> t -> t
(** [map f m] applies [f] entrywise. *)

val mapi : (int -> int -> float -> float) -> t -> t
(** [mapi f m] applies [f i j] entrywise. *)

val add : t -> t -> t
(** Entrywise sum. *)

val sub : t -> t -> t
(** Entrywise difference. *)

val scale : float -> t -> t
(** [scale a m] multiplies every entry by [a]. *)

val mul : t -> t -> t
(** [mul a b] is the matrix product [a * b]. *)

val kron_prod : t -> t -> t
(** [kron_prod a b] is the Kronecker product [a (x) b]
    (Definition 4.4): with [b] of shape [n2 x m2], entry
    [(i1*n2 + i2, j1*m2 + j2)] is [a(i1,j1) * b(i2,j2)] — the second
    factor's index is minor. *)

val kron_sum : t -> t -> t
(** [kron_sum a b] is the Kronecker sum [a (x) I + I (x) b] of two
    {e square} matrices ([Invalid_argument] otherwise).  Each entry is
    the sum of its two terms, so an off-diagonal entry is exactly the
    one factor entry it comes from. *)

val mul_vec : t -> Vec.t -> Vec.t
(** [mul_vec m v] is the matrix-vector product [m v]. *)

val vec_mul : Vec.t -> t -> Vec.t
(** [vec_mul v m] is the row-vector product [v m] (used for the
    steady-state equation [p G = 0]). *)

val iter_row : (int -> float -> unit) -> t -> int -> unit
(** [iter_row f m i] applies [f j x] to every entry [x] of row [i],
    including zeros. *)

val fold : ('a -> float -> 'a) -> 'a -> t -> 'a
(** [fold f acc m] folds over all entries in row-major order. *)

val row_sums : t -> Vec.t
(** [row_sums m] is the vector of row sums. *)

val max_abs : t -> float
(** [max_abs m] is the largest absolute entry (0 for empty matrices). *)

val approx_equal : ?tol:float -> t -> t -> bool
(** Entrywise comparison within absolute tolerance [tol]
    (default [1e-9]); false on shape mismatch. *)

val pp : Format.formatter -> t -> unit
(** Multi-line pretty-printer with aligned [%g] entries. *)
