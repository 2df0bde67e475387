(** Solver guardrails: deadlines, finiteness scans, the exception
    fence.

    The solver loops of this repository accept a generic
    [?guard:(unit -> unit)] hook, invoked once per iteration / pivot /
    sweep / elimination step, that may raise to abort the solve.  This
    module builds the deadline hook ({!of_deadline}), the NaN/Inf
    scans applied
    at stage boundaries, and the one fence every guarded solve runs
    in ({!run}): it hands the solve its hook and turns whatever
    escapes into a typed {!Error.t}. *)

open Dpm_linalg

val of_deadline : float option -> unit -> unit
(** [of_deadline (Some seconds)] is a guard enforcing a wall-clock
    budget counted from {e now} (closure creation); [None] is the
    no-op guard.  A tick at or past the budget increments the
    [robust.deadline_exceeded] counter and raises
    {!Error.Deadline_signal} — which {!run} maps to
    [Error Deadline_exceeded].  A budget of [0.] fires on the first
    tick; negative budgets are [Invalid_argument].  Resolution is one
    solver step: a single pathological step cannot be interrupted
    mid-flight (no signals, no threads — see DESIGN.md). *)

val check_finite : site:string -> float -> unit
(** Raises {!Error.Non_finite_signal}[ site] — [Error (Non_finite
    site)] under {!run} — when the value is NaN or infinite (counted
    as [robust.non_finite]). *)

val check_finite_vec : site:string -> Vec.t -> unit
(** {!check_finite} per entry; the first non-finite one is reported
    as ["site[i]"]. *)

val run :
  stage:string ->
  ?deadline_s:float ->
  ?faults:Fault.plan ->
  ((unit -> unit) -> 'a) ->
  ('a, Error.t) result
(** [run ~stage f] is [Ok (f guard)], where [guard] ticks the plan's
    injected {!Fault.Stall} (when [faults] has one) and then the
    wall-clock budget [deadline_s] ({!of_deadline}, counted from the
    call), and every exception escaping [f] is mapped through
    {!Error.of_exn} to [Error _] (counted as [robust.errors]).
    Exceptions {!Error.of_exn} refuses ([Out_of_memory],
    [Stack_overflow], ...) are re-raised with their original
    backtrace.  [stage] names the failing phase in debug logs.  [f]
    decides where the hook goes (policy iteration, GTH elimination,
    the simplex, ...) and may run the finiteness scans on what it
    returns. *)
