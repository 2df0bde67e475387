(** The typed failure taxonomy of the robustness layer.

    The solvers raise a typed exception where they fail
    ([Lu.Singular], [Simplex.Cycling], {!Dpm_ctmdp.Solver_error},
    [Steady_state.Not_irreducible], the two guard signals below), and
    {!Guard.run} fences a solve, mapping whatever escapes it through
    {!of_exn} onto a closed sum a caller can match on.  The core keeps
    raising (DESIGN.md decision 10): rewriting the solvers in result
    style would double every signature for failure paths that occur
    on no well-formed model. *)

type t =
  | Singular
      (** a linear system had no usable LU factorization even after
          the solver's own retry ladders (policy evaluation exhausted
          its Tikhonov rungs, Padé re-scaling still singular, ...) *)
  | Nonconvergent of { iterations : int; residual : float }
      (** an iteration budget ran out
          ({!Dpm_ctmdp.Solver_error.Nonconvergent}); [residual] is the
          solver's final convergence measure, NaN when it has none
          (the policy-improvement loops) *)
  | Cycling
      (** the simplex exhausted its pivot budget twice — once under
          Dantzig pricing and once under the automatic Bland
          anti-cycling retry *)
  | Invalid_model of Diagnostic.t list
      (** the model/matrix violates invariants; {e all} detected
          violations are listed, not just the first *)
  | Deadline_exceeded of { budget_s : float; elapsed_s : float }
      (** the per-solve wall-clock budget fired (see
          {!Guard.of_deadline}) *)
  | Non_finite of string
      (** a NaN/Inf appeared at the named stage boundary (e.g.
          ["policy_iteration.bias"]) *)

exception Deadline_signal of { budget_s : float; elapsed_s : float }
(** Raised by {!Guard.of_deadline} ticks inside solver loops; {!of_exn}
    maps it to {!Deadline_exceeded}.  Defined here (not in [Guard])
    so the mapping does not create a module cycle. *)

exception Non_finite_signal of string
(** Raised by {!Guard.check_finite} and {!Guard.check_finite_vec}
    with the failing site; {!of_exn} maps it to {!Non_finite}. *)

val of_exn : exn -> t option
(** Map an escaped exception onto the taxonomy.  [None] means "do not
    catch": [Out_of_memory], [Stack_overflow], [Assert_failure] and
    [Sys.Break] must keep unwinding.  Everything else maps, by
    constructor: the deadline and non-finite signals, LU singularity,
    simplex cycling, solver non-convergence (iterations and residual
    carried over), LP infeasibility and unboundedness (codes
    [lp-infeasible] and [lp-unbounded]), generator/model validation
    exceptions; a [Failure] is the generic [failure] diagnostic, and
    any other exception becomes [Invalid_model [unexpected-exception]]
    rather than escaping {!Guard.run}. *)

val pp : Format.formatter -> t -> unit
(** One-line rendering, e.g.
    [deadline exceeded: budget 0.5s, elapsed 0.52s]. *)

val to_string : t -> string
(** {!pp} rendered to a string. *)

val exit_code : t -> int
(** The process exit code for this error class — one code per
    constructor, stable across releases, shared by every [dpm_cli]
    subcommand and relied on by the serve daemon's supervisor and CI:
    {!Deadline_exceeded} 3 (the historical sweep contract),
    {!Singular} 4, {!Nonconvergent} 5, {!Cycling} 6,
    {!Invalid_model} 7, {!Non_finite} 8.  Codes 1 (generic failure)
    and 2 (infeasible constrained problem) are reserved by the CLI
    and never returned here. *)

val class_name : t -> string
(** Stable one-word slug of the error class ([singular],
    [nonconvergent], [cycling], [invalid-model], [deadline-exceeded],
    [non-finite]) — used in logs and the serve daemon's health
    telemetry. *)
