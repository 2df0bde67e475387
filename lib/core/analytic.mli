(** Analytic ("functional") steady-state metrics — the model-side
    numbers the paper compares against simulation at the end of its
    first experiment.

    Given the closed-loop chain of a policy, the stationary
    distribution [p] (Theorem 2.1) turns every cost rate into a
    long-run average: power is [sum_x p_x C_pow(x, a_x)], the average
    number of waiting requests is [sum_x p_x C_sq(x)], and waiting
    time follows by Little's law. *)

open Dpm_linalg

type metrics = {
  power : float;
      (** average power in watts, including rate-weighted switching
          energy *)
  avg_waiting_requests : float;  (** stationary mean of [C_sq] *)
  throughput : float;  (** service completions per unit time *)
  loss_rate : float;  (** requests lost (full queue) per unit time *)
  loss_probability : float;  (** fraction of arrivals lost *)
  avg_waiting_time : float;
      (** mean sojourn (arrival to completion) of an {e accepted}
          request, by Little's law on the accepted rate *)
  avg_waiting_time_paper : float;
      (** the paper's Table 1 approximation: waiting requests divided
          by the {e raw} input rate *)
  mode_residency : float array;
      (** fraction of time the SP spends in each mode (transfer
          states count for their source mode) *)
  state_probabilities : Vec.t;  (** the stationary distribution *)
}

val of_actions : Sys_model.t -> actions:(Sys_model.state -> int) -> metrics
(** [of_actions sys ~actions] solves the closed-loop chain under the
    given state-to-action map and reads off the metrics.  The map is
    not validity-checked (callers validate separately) but must
    induce a chain with a unique stationary distribution. *)

val of_mixed :
  Sys_model.t -> gen:Dpm_ctmc.Generator.t -> power_rates:Vec.t -> metrics
(** [of_mixed sys ~gen ~power_rates] reads the metrics off an
    arbitrary closed-loop chain over [sys]'s state space — used for
    the {e randomized} stationary policies of
    {!Optimize.constrained_exact}, whose generator blends several
    actions' rates ({!Dpm_ctmdp.Constrained_lp.mixed_generator}).
    [power_rates.(k)] is the (mixed) power draw of state index [k]. *)

val of_action_array : Sys_model.t -> int array -> metrics
(** Same, with the actions tabulated by state index (the format
    produced by the optimizer and {!Policies.actions_array}). *)

val of_stationary : Sys_model.t -> int array -> Vec.t -> metrics
(** Same, read off [p], the table's closed-loop stationary
    distribution, in O(n) without solving — bit-identical to
    {!of_action_array} given the [p] it computes.  [p] becomes
    [state_probabilities] uncopied. *)

val energy_per_request : metrics -> float
(** [power / throughput] — joules per serviced request, a derived
    figure of merit used in the examples. *)

val pp : Format.formatter -> metrics -> unit
(** One-line summary: power, queue, waiting time, loss. *)
