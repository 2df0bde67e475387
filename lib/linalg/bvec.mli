(** Flat [Bigarray] state vectors (float64, C layout).

    The Bigarray-backed counterpart of {!Vec} for the policy-evaluation
    and value-iteration hot loops: unboxed storage outside the OCaml
    heap, so Gauss-Seidel sweeps over millions of states neither box
    floats nor create GC pressure.  The type is exposed as a plain
    [Bigarray.Array1.t] so kernels can use [Array1.unsafe_get] directly
    where profiling justifies it. *)

type t = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
(** A flat float64 vector in C layout. *)

val create : int -> t
(** [create n] is a fresh zero-filled vector of dimension [n]. *)

val make : int -> float -> t
(** [make n x] is a fresh vector of dimension [n] filled with [x]. *)

val dim : t -> int
(** [dim v] is the number of entries. *)

val get : t -> int -> float
(** [get v i] is entry [i] (bounds-checked). *)

val set : t -> int -> float -> unit
(** [set v i x] stores [x] at entry [i] (bounds-checked). *)

val fill : t -> float -> unit
(** [fill v x] sets every entry to [x]. *)

val blit : src:t -> dst:t -> unit
(** [blit ~src ~dst] copies [src] into [dst].  Raises
    [Invalid_argument] on dimension mismatch. *)

val copy : t -> t
(** [copy v] is a fresh vector with the same entries. *)

val of_vec : Vec.t -> t
(** [of_vec v] copies a boxed {!Vec.t} into a fresh Bigarray vector. *)

val to_vec : t -> Vec.t
(** [to_vec v] copies back into a boxed {!Vec.t} (for interop with the
    dense/sparse solvers and result records). *)

val sum : t -> float
(** [sum v] is the entry sum, accumulated in index order (the same
    order as {!Vec.sum}, so normalizations agree bitwise). *)

val norm_inf : t -> float
(** [norm_inf v] is [max_i |v_i|]. *)

val norm1 : t -> float
(** [norm1 v] is [sum_i |v_i|], accumulated in index order. *)

val scale_inplace : float -> t -> unit
(** [scale_inplace a v] multiplies every entry by [a] in place. *)

val approx_equal : ?tol:float -> t -> t -> bool
(** Entrywise comparison within absolute tolerance [tol] (default
    [1e-9]); [false] on dimension mismatch. *)

val pp : Format.formatter -> t -> unit
(** Prints as [[x0; x1; ...]]. *)
