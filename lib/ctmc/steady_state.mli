(** Limiting (steady-state) distributions — Theorem 2.1.

    For an irreducible positive-recurrent chain, the limiting
    distribution is the unique solution of [p G = 0], [sum p = 1].
    Three solvers are provided:

    - {!gth}: the Grassmann-Taksar-Heyman elimination, which performs
      no subtractions and is therefore backward stable even for the
      stiff generators produced by the big-M self-switch rate
      (DESIGN.md decision 1).  Eliminating a state fills only inside
      the band of the current order, so it runs on band storage;
      {!solve} uses a bandwidth-reducing order;
    - {!lu_solve}: replace one balance equation with the
      normalization and solve by LU — the textbook approach;
    - {!iterative}: sparse Gauss-Seidel for large state spaces.

    [solve] picks GTH for dense-backed generators and small closed
    classes, Gauss-Seidel for larger sparse-backed ones. *)

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
    over the zeros outside the band is exact.
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

val iterative :
  ?tol:float ->
  ?max_iter:int ->
  ?guard:(unit -> unit) ->
  Generator.t ->
  Iterative.result
(** [iterative g] runs sparse Gauss-Seidel sweeps (see
    {!Dpm_linalg.Iterative.gauss_seidel_steady}). *)

val implicit :
  ?tol:float ->
  ?max_iter:int ->
  ?guard:(unit -> unit) ->
  ?init:Vec.t ->
  ?order:int array ->
  Operator.t ->
  Iterative.result
(** [implicit op] runs the same stationary Gauss-Seidel sweeps
    directly on a lazy operator (see
    {!Dpm_linalg.Operator.gauss_seidel_steady}) — the generator is
    never materialized, so a composed SYS from
    [Sys_model.operator] solves in O(stored factors) memory rather
    than O(nnz).  [op] must be a square generator (rows summing to
    zero); agreement with {!iterative} on the materialized form is
    pinned by tests.  [init] is the starting iterate (default
    uniform); a structure-informed guess such as
    [Sys_model.stationary_hint] removes the depth-proportional
    transient that draining the uniform iterate's tail mass costs.
    [order] is the sweep permutation — pass a flow-aligned order
    (e.g. [Sys_model.sweep_order]) to keep the per-sweep correction
    transport independent of the chain's depth. *)

val solve : ?check:bool -> ?guard:(unit -> unit) -> Generator.t -> Vec.t
(** [solve g] computes the limiting distribution of any chain with a
    unique closed class: it classifies states (Tarjan), solves the
    closed class in isolation and assigns probability zero to
    transient states.  The closed class is solved by GTH in a reverse
    Cuthill-McKee order, on band storage, when [g] is dense-backed or
    the class has at most 256 states; otherwise by Gauss-Seidel with
    that GTH as fallback (counted as [steady_state.gth_fallbacks]).
    A class is restricted through an index array, its band filled
    straight from [g]'s rows.  Raises {!Not_irreducible} when the
    closed class is not unique.  [check] is kept for interface
    stability and ignored — classification always runs.  [guard] is
    threaded into the GTH elimination and the sweeps (see {!gth}). *)

val residual : Generator.t -> Vec.t -> float
(** [residual g p] is [norm_inf (p G)] — how well [p] balances. *)

val expected_value : Vec.t -> (int -> float) -> float
(** [expected_value p f] is [sum_i p_i * f i], the stationary
    expectation of a state function — used for the paper's
    "functional values" of power and queue length. *)
