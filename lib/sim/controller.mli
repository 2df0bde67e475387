(** Power-manager controllers for the event-driven simulator.

    The simulator calls the controller after every state-changing
    event; the controller answers with the mode the SP should head
    for (the PM "command" of the paper) and may request a timer
    callback (how time-out policies observe idleness).

    Included controllers: the stationary-policy controller (wraps any
    policy produced by the optimizer or {!Dpm_core.Policies}), the
    greedy, N-, and time-out heuristics of Section V. *)

type reason =
  | Init  (** simulation start *)
  | Arrival  (** a request was accepted into the queue *)
  | Arrival_lost  (** a request found the queue full *)
  | Service_completed of int
      (** a service finished; payload is the queue length {e at the
          completion instant, including the finishing request} — the
          [i] of the transfer state [q_{i -> i-1}] *)
  | Switch_completed  (** the SP settled in a new mode *)
  | Timer  (** a previously requested timer fired *)

type observation = {
  time : float;  (** current simulation clock *)
  mode : int;  (** the SP's current (source, if switching) mode *)
  switching_to : int option;  (** pending switch target, if any *)
  queue_length : int;  (** requests in the system right now *)
  in_transfer : bool;
      (** a service has completed and the next one has not started —
          the simulated counterpart of the model's transfer states *)
}

type decision = {
  target : int option;
      (** mode to head for; [None] or [Some current] mean no change.
          A new target overrides a pending switch. *)
  timer : float option;  (** request a [Timer] callback after this delay *)
}

type t = {
  name : string;
  decide : observation -> reason -> decision;
}
(** Controllers may close over mutable state (timeout controllers
    track idleness), so a fresh controller must be built per
    simulation run. *)

val no_change : decision
(** [{ target = None; timer = None }]. *)

val of_dynamic_policy :
  ?name:string ->
  Dpm_core.Sys_model.t ->
  policy:(unit -> Dpm_core.Sys_model.state -> int) ->
  t
(** [of_dynamic_policy sys ~policy] is {!of_policy} for a policy that
    may change between decisions: [policy ()] is consulted at every
    event, so a controller that re-optimizes online (see
    [Dpm_adapt.Adaptive]) can swap the deployed policy by mutating
    whatever [policy] reads.  The observation-to-state mapping is
    identical to {!of_policy}. *)

val of_time_policy :
  ?name:string ->
  ?wake:float list ->
  Dpm_core.Sys_model.t ->
  policy:(float -> Dpm_core.Sys_model.state -> int) ->
  t
(** [of_time_policy sys ~policy] executes a {e time-indexed} family
    of stationary policies: [policy time state] is consulted at every
    event with the current clock, so a piecewise deployment plan (the
    fleet simulator's per-segment policies) runs inside one
    simulation.  [wake] lists absolute times at which the policy must
    be re-consulted even if no event occurs — plan segment
    boundaries, where a server may be parked or woken during a quiet
    stretch; the controller chains a single timer through them.  The
    observation-to-state mapping is identical to {!of_policy}.
    Raises [Invalid_argument] on a negative or non-finite wake
    time. *)

val of_policy : Dpm_core.Sys_model.t -> (Dpm_core.Sys_model.state -> int) -> t
(** [of_policy sys policy] executes a stationary Markov policy: on a
    service completion with [i] requests present it consults
    [Transfer (mode, i)]; on every other event, [Stable (mode, queue)]
    (with the queue clamped to the model's capacity).  While the SP
    is switching, the policy is re-consulted on each event and may
    redirect the switch, mirroring the memoryless rate semantics of
    the Markov model. *)

val of_solution : Dpm_core.Sys_model.t -> Dpm_core.Optimize.solution -> t
(** Convenience: {!of_policy} on an optimizer solution. *)

val always_on : Dpm_core.Sys_model.t -> t
(** Drive to the fastest active mode and stay there. *)

val greedy : Dpm_core.Sys_model.t -> t
(** Sleep the instant the system empties; wake the instant a request
    arrives.  The heuristics sleep to
    {!Dpm_core.Service_provider.deepest_sleep} and wake to
    {!Dpm_core.Service_provider.fastest_active}. *)

val n_policy : Dpm_core.Sys_model.t -> n:int -> t
(** Sleep when the system empties; wake when [n] requests have
    accumulated. *)

val timeout : Dpm_core.Sys_model.t -> delay:float -> t
(** Section V's time-out family: wake on the first waiting request;
    after the system empties, stay in the active mode for [delay]
    seconds and then sleep if still idle. *)

val periodic : period:float -> decide:(mode:int -> queue:int -> int) -> t
(** A time-slice power manager in the style of the discrete-time
    baseline [11]: it observes the system and issues a command only on
    a [period] timer, ignoring events in between.  Wire it to a
    solved {!Dpm_core.Discrete_baseline} via its [action_of].  The
    per-slice decision cost that the paper's criticism (4) is about is
    charged through {!Power_sim.run}'s [decision_energy]. *)

val time_shared : period:float -> fraction:float -> t -> t -> t
(** [time_shared ~period ~fraction a b] alternates between two
    controllers: [a] drives the system for [fraction * period]
    seconds, then [b] for the rest, repeating.  For periods much
    longer than the system's mixing time the long-run metrics
    converge to the [fraction]-weighted mixture of the two
    controllers' own metrics — the practical realization of the
    randomized policies produced by
    {!Dpm_core.Optimize.constrained_exact}.  Timer requests from the
    inactive controller are serviced when it next holds the reins;
    both controllers see every event (so their internal state stays
    coherent), but only the active one's commands are applied.
    Raises [Invalid_argument] unless [0 <= fraction <= 1] and
    [period > 0]. *)
