(** Warm-start plumbing for solver grids.

    Sweeps over a weight or rate grid solve a family of closely
    related models; seeding each grid point's policy iteration with a
    neighbor's optimal policy typically cuts the iteration count by
    half or more.  This module provides the two pieces that keep that
    trick deterministic and safe: validated translation of an action
    table into a policy for a {e different} model of the same state
    space, and a wave schedule that fixes, as a function of the grid
    size alone, which points solve in which order and who seeds whom
    — so results are bit-identical at any {!Dpm_par} domain count. *)

val init_of_actions :
  Dpm_ctmdp.Model.t -> int array -> Dpm_ctmdp.Policy.t option
(** [init_of_actions m actions] is [Policy.of_actions m actions]
    (every state must offer the requested label), or [None] (a cold
    start) where that raises: the table has the wrong length or some
    state lacks the label.  The outcome is counted on the
    [cache.warm_starts] / [cache.warm_fallbacks] {!Dpm_obs} probes. *)

val waves : int -> (int * int option) array list
(** [waves n] is a schedule for solving grid points [0 .. n-1] in
    waves of independent points: each element [(k, src)] solves point
    [k] warm-started from already-solved point [src] ([None] = cold).
    The schedule is binary subdivision — point 0 cold, point [n-1]
    from 0, then every remaining gap's midpoint from its nearest
    solved endpoint (ties to the left) — and depends only on [n], so
    a sweep's results cannot depend on how many domains executed each
    wave.  Points within a wave never depend on one another. *)
