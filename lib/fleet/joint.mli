(** The flat joint CTMDP oracle for tiny fleets.

    For a fixed fully-active deployment, the per-server closed-loop
    chains are independent (Poisson thinning), so the exact joint
    generator is the Kronecker {e sum} of the per-server closed-loop
    generators — built row by row as a sparse {!Dpm_ctmc.Generator.t}
    in O(n d) memory for [n] joint states whose servers' local
    out-degrees sum to [d], and solved flat.  The
    hierarchical decomposition must agree with this joint solve
    exactly (up to solver tolerance): joint stationary = product of
    per-server marginals, joint gain = sum of per-server gains.
    This is the cross-method oracle the fleet test suite pins, in
    the same discipline as the PI=VI=LP property tests. *)

type t
(** A built joint model over every server of a deployment. *)

val max_states : int
(** Joint state-space cap (the oracle builds and solves the flat
    chain). *)

val build : Deploy.t -> t
(** [build d] assembles the joint generator of a deployment in which
    {e every} server is active.  Raises [Invalid_argument] when some
    server is off or the joint state space exceeds {!max_states}. *)

val num_states : t -> int
(** Product state-space size. *)

val dims : t -> int array
(** Per-server state-space sizes, server 0 major in the flat joint
    index. *)

val stationary : ?guard:(unit -> unit) -> t -> Dpm_linalg.Vec.t
(** Exact stationary distribution of the flat joint chain by the
    classified banded GTH solve ({!Dpm_ctmc.Steady_state.solve}). *)

val product_stationary : t -> Dpm_linalg.Vec.t
(** The hierarchical prediction: the product of the per-server
    stationary distributions. *)

val marginal : t -> Dpm_linalg.Vec.t -> server:int -> Dpm_linalg.Vec.t
(** [marginal t pi ~server] sums a joint distribution down to one
    server's state space. *)

val gain : t -> Dpm_linalg.Vec.t -> float
(** [gain t pi] is the stationary weighted cost rate of the joint
    chain under distribution [pi] — Eqn. (3.1) summed over servers.
    With the exact {!stationary} it must equal the sum of per-server
    gains ({!Deploy.gain}). *)
