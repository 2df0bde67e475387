(** Model validation: report {e all} violations, not just the first.

    Each rule has one check, kept with the type it guards:
    [Dpm_ctmdp.Model.check_state] for a CTMDP choice set,
    [Dpm_ctmc.Generator.check] for a dense generator matrix.  A check
    hands each finding to a reporter.  The constructors
    ([Model.create], [Generator.of_matrix]) pass one that raises at the
    first finding — fail-fast library use; the passes here pass one
    that collects every finding as a {!Diagnostic.t} (capped at
    {!max_diagnostics}, with a [truncated] warning when the cap is
    hit), which is what diagnosing a corrupted or hand-built instance
    needs.  So a table or matrix these passes call clean is one the
    constructor accepts, and the other way round.  What only this
    module does: the report cap, unichain reachability of the union
    graph and the paper's Section III action rules.  [dpm_cli check]
    and the pre-solve validation hook are built on these passes. *)

open Dpm_linalg
open Dpm_core

val max_diagnostics : int
(** Report cap (100). *)

val choices :
  num_states:int -> (int -> Dpm_ctmdp.Model.choice list) -> Diagnostic.t list
(** Validate a raw CTMDP choice table: [empty-model] for
    [num_states <= 0]; a [choices_of] call that raises becomes
    [choices-raised]; every state's findings from
    [Model.check_state] ([empty-choice], [duplicate-action],
    [non-finite-cost], [bad-target], [bad-rate]) — exactly what
    [Model.create] would raise on — plus unichain reachability of the
    union graph of all choices ([not-unichain]), checked only when no
    structural error was found. *)

val model : Dpm_ctmdp.Model.t -> Diagnostic.t list
(** {!choices} on an already-built model, read in place through
    [Model.check] (useful after [map_costs], which deliberately skips
    re-validation). *)

val model_r :
  num_states:int ->
  (int -> Dpm_ctmdp.Model.choice list) ->
  (Dpm_ctmdp.Model.t, Error.t) result
(** Validate, then build: [Error (Invalid_model findings)] when
    {!choices} reports any error-severity finding (counted as
    [robust.models_rejected]), otherwise [Ok (Model.create ...)] —
    with anything the constructor itself still raises mapped through
    {!Guard.run}. *)

val generator_matrix : Matrix.t -> Diagnostic.t list
(** Every finding of [Generator.check] on a dense matrix at its default
    tolerance: [not-square], [empty-matrix], [non-finite-entry],
    [negative-rate] and [row-sum] are errors, and an all-zero row is
    the [absorbing-state] {e warning}.  It reports an error exactly
    when [Generator.of_matrix] (default tolerance) would raise. *)

val system : Sys_model.t -> Diagnostic.t list
(** Validate a composed DPM system: re-derives the paper's three
    Section-III action-validity constraints from the SP quadruple and
    checks them against every state's offered action set —
    (1) an active SP in a stable state only commands active modes
    ([c1-interrupts-service]); (2) in the full stable state an
    inactive SP neither stays nor switches to an inactive mode with
    an equal-or-longer wakeup ([c2-no-progress]); (3) in the full
    transfer state no strictly slower active mode is offered
    ([c3-slower-service]) — plus nonempty action sets ([no-actions])
    and the {!choices} pass (generator invariants and unichain
    reachability) on [Sys_model.choices], the table [Sys_model.to_ctmdp]
    builds its model from. *)
