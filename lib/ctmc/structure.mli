(** Structural analysis of Markov chains.

    Definitions 2.3-2.6 of the paper: accessibility, communicating
    classes, irreducibility, recurrence.  The action-validity
    constraints of Section III exist precisely to keep the composed
    system a connected Markov process, so the test suite checks every
    expressible policy with {!is_irreducible}. *)

open Dpm_linalg

val communicating_classes : Generator.t -> int list list
(** [communicating_classes g] is the partition of states into
    communicating classes (strongly connected components of the
    transition graph), in reverse topological order (classes reachable
    from others come first in successor order; Tarjan output order). *)

val is_irreducible : Generator.t -> bool
(** True when all states form a single communicating class
    (Definition 2.5). *)

val reachable_from : Generator.t -> int -> bool array
(** [reachable_from g i] marks every state accessible from [i]
    (Definition 2.4), including [i] itself. *)

val recurrent_classes : Generator.t -> int list list
(** [recurrent_classes g] lists the closed communicating classes —
    the classes with no transition leaving them.  In a finite chain
    these are exactly the positive-recurrent classes; states outside
    them are transient (Definition 2.3). *)

val closed_classes : int array array -> int list list
(** [closed_classes succ] is {!recurrent_classes} of the chain whose
    state [i] has a positive rate to exactly the states [succ.(i)] —
    for callers that already hold the transition structure. *)

val transient_states : Generator.t -> int list
(** States that belong to no closed class. *)

val is_connected_graph : Sparse.t -> bool
(** [is_connected_graph adj] checks weak connectivity of an arbitrary
    sparse adjacency/rate matrix (Definition 2.6's "connected Markov
    process" is on the underlying undirected graph). *)
