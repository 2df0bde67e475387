(** Limiting (steady-state) distributions — Theorem 2.1.

    For an irreducible positive-recurrent chain, the limiting
    distribution is the unique solution of [p G = 0], [sum p = 1].
    {!solve} is the one route every metric takes: it classifies the
    states, then runs the Grassmann-Taksar-Heyman elimination on the
    closed class.  GTH performs no subtractions and is therefore
    backward stable even for the stiff generators produced by the
    big-M self-switch rate (DESIGN.md decision 1); eliminating a state
    fills only inside the band of the current order, so it runs on
    band storage in a bandwidth-reducing order, O(n b{^2}) for the
    narrow-band SYS chains at any size (decision 18).

    {!gth} is the same elimination in natural order on an irreducible
    chain, and {!lu_solve} the textbook replace-one-equation LU; both
    serve as references. *)

open Dpm_linalg

exception Not_irreducible of string
(** Raised by {!solve} when the chain has zero or several closed
    communicating classes, i.e. no start-state-independent limiting
    distribution exists (Theorem 2.1 requires a unique one). *)

val gth : ?guard:(unit -> unit) -> Generator.t -> Vec.t
(** [gth g] computes the stationary distribution by GTH elimination
    in the natural state order, on band storage: O(n b{^2}) time and
    O(n b) space for the half-bandwidth b of that order (b < n), and
    bit-identical to the dense n x n elimination, whose arithmetic
    over the zeros outside the band is exact.  The back substitution
    rescales by powers of two (exact) whenever its running measure
    passes 2{^600}, so a first state deep in a geometric tail cannot
    overflow it.
    [guard] (default no-op) is invoked before each elimination step
    and may raise to abort — the [Dpm_robust] deadline hook.  Exact up to
    rounding for {e irreducible} generators only — the back
    substitution anchors the measure at state 0, so a transient
    state 0 silently corrupts the result; use {!solve}, which
    classifies states first, on chains that may have transient
    states. *)

val lu_solve : Generator.t -> Vec.t
(** [lu_solve g] solves the transposed balance equations with the
    normalization row substituted.  Raises [Lu.Singular] when the
    chain has more than one closed class. *)

val solve : ?guard:(unit -> unit) -> Generator.t -> Vec.t
(** [solve g] computes the limiting distribution of any chain with a
    unique closed class: it classifies states (Tarjan), solves the
    closed class in isolation by GTH in a reverse Cuthill-McKee order,
    on band storage, and assigns probability zero to transient states.
    [g]'s rows are read once, into CSR arrays that both the
    classification and the elimination use.  Raises {!Not_irreducible}
    when the closed class is not unique.  [guard] is threaded into the
    GTH elimination (see {!gth}). *)

val residual : Generator.t -> Vec.t -> float
(** [residual g p] is [norm_inf (p G)] — how well [p] balances. *)

val expected_value : Vec.t -> (int -> float) -> float
(** [expected_value p f] is [sum_i p_i * f i], the stationary
    expectation of a state function — used for the paper's
    "functional values" of power and queue length. *)
