(** Band storage for the exact kernels, and the orderings that make a
    sparse system banded.

    The relative-value system of policy iteration and the generators
    behind the stationary solve are sparse, and for the models of this
    library nearly banded: the SYS chain moves one queue level per
    event, a quasi-birth-death structure.  Under a bandwidth-reducing
    order ({!rcm}) a system of [n] unknowns with half-bandwidth [b]
    factors in O(n b{^2}) time and O(n b) memory, against O(n{^3}) and
    O(n{^2}) dense.

    {!t} is a {e bordered} band matrix: [n x n], its first [n - 1]
    columns banded ([kl] diagonals below, [ku] above), its last column
    dense — the shape of the relative-value system, whose gain unknown
    couples every equation.  {!decompose} factors it with partial
    pivoting inside the band (LAPACK's [gbtrf] scheme) and performs, per
    entry, exactly [Lu.decompose]'s arithmetic on the same matrix: the
    solution is bit-identical to dense LU's (pinned by a property
    test).  Singular systems raise [Lu.Singular]; factorizations and
    solves count on [lu.factorizations] and [lu.solves] like dense
    ones. *)

(** {1 Orderings} *)

type ordering = {
  order : int array;  (** [order.(k)] is the node at position [k] *)
  position : int array;  (** the inverse: [position.(order.(k)) = k] *)
  half_bandwidth : int;
      (** [max |position i - position j|] over the edges *)
}
(** A permutation of the nodes [0, n) with its half-bandwidth. *)

val rcm : ?late:int -> int -> ((int -> int -> unit) -> unit) -> ordering
(** [rcm n iter_edges] is the reverse Cuthill-McKee order of the graph
    on [n] nodes whose edges [iter_edges f] reports by calling [f i j]
    (direction, self-loops and repeats are ignored; [iter_edges] is
    called three times).  Each component starts from a
    pseudo-peripheral node; ties are broken by node index, so the
    order is a deterministic function of the edge set.  [late], when
    given, picks the orientation: of the order and its reverse, which
    have the same half-bandwidth, the one that puts node [late] later.
    O(n + nnz) on int arrays, without a comparison sort. *)

val natural : int -> ((int -> int -> unit) -> unit) -> ordering
(** [natural n iter_edges] is the identity order with its
    half-bandwidth. *)

(** {1 Bordered band matrices} *)

type t
(** A mutable [n x n] matrix: columns [0, n-1) banded, column [n-1]
    dense. *)

val create : n:int -> kl:int -> ku:int -> t
(** [create ~n ~kl ~ku] is the zero matrix whose banded columns hold
    entries [(i, j)] with [i - kl <= j <= i + ku].  Raises
    [Invalid_argument] on [n <= 0] or a negative bandwidth. *)

val dim : t -> int
(** [dim t] is [n]. *)

val get : t -> int -> int -> float
(** [get t i j] is entry [(i, j)].  Raises [Invalid_argument] when
    [(i, j)] is out of range or outside the band (column [n - 1] is
    always inside). *)

val set : t -> int -> int -> float -> unit
(** [set t i j x] stores [x] at [(i, j)]; same domain as {!get}. *)

val add : t -> int -> int -> float -> unit
(** [add t i j x] adds [x] to entry [(i, j)]; same domain as {!get}. *)

val copy : t -> t
(** [copy t] is a fresh matrix equal to [t]. *)

val max_abs : t -> float
(** [max_abs t] is the largest absolute entry. *)

val residual_norm : t -> Vec.t -> Vec.t -> float
(** [residual_norm t x b] is [norm_inf (t x - b)]. *)

val to_dense : t -> Matrix.t
(** [to_dense t] is the same matrix in dense storage. *)

(** {1 Banded LU} *)

type factors
(** A factorization [P t = L U] in band storage: [n (2 kl + ku + 1)]
    floats for the factors, [n] for the dense column, [n] pivot
    indices. *)

val decompose : ?pivot_tol:float -> t -> factors
(** [decompose t] factors a copy of [t] ([t] is not modified).  Raises
    [Lu.Singular k] when the pivot of step [k] falls below [pivot_tol]
    (default [1e-13]) times [max 1 (max_abs t)] — [Lu.decompose]'s
    rule. *)

val solve_factored : factors -> Vec.t -> Vec.t
(** [solve_factored f b] solves [t x = b]. *)

val solve : ?pivot_tol:float -> t -> Vec.t -> Vec.t
(** [solve t b] is [solve_factored (decompose t) b]. *)
