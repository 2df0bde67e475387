(** The Service Queue (SQ) — Section III of the paper.

    An M/M/1/Q-style queue extended with {e transfer states}: when a
    service completes, the SQ enters [q_{i -> i-1}] and stays there
    while the SP performs its (possibly instantaneous) mode switch;
    it leaves to the stable state [q_{i-1}] exactly when the switch
    completes.  A request arriving to a full queue is lost.

    This module models the SQ {e conditioned on} a fixed SP mode [s]
    and PM action [a]; the four transition families of Section III:

    + [q_i -> q_{i+1}] at the arrival rate [lambda] (i < Q);
    + [q_i -> q_{i -> i-1}] at the service rate [mu(s)] (i >= 1);
    + [q_{i -> i-1} -> q_{i-1}] at the switching rate [chi(s, s')]
      where [s'] is the destination of [a];
    + [q_{i -> i-1} -> q_{i+1 -> i}] at [lambda] (i < Q).

    The state indexing is [q_i <-> i] for [0 <= i <= Q] and
    [q_{i -> i-1} <-> Q + i] for [1 <= i <= Q] ([dim = 2Q + 1]). *)

type state =
  | Stable of int  (** [q_i]: [i] requests queued, [0 <= i <= Q] *)
  | Transfer of int
      (** [q_{i -> i-1}]: a service just completed with [i] requests
          present; [1 <= i <= Q] *)

val dim : capacity:int -> int
(** [dim ~capacity] is [2 * capacity + 1]. *)

val index : capacity:int -> state -> int
(** Flat index of a state; raises [Invalid_argument] out of range. *)

val state_of_index : capacity:int -> int -> state
(** Inverse of {!index}. *)

val waiting_requests : state -> int
(** The paper's delay cost [C_sq]: [i] for [q_i], [i - 1] for
    [q_{i -> i-1}] (the departing request no longer waits). *)

val generator :
  capacity:int ->
  arrival_rate:float ->
  service_rate:float ->
  switch_out_rate:float ->
  Dpm_ctmc.Generator.t
(** [generator ~capacity ~arrival_rate ~service_rate ~switch_out_rate]
    is [G_SQ(s, a)] for the conditioning mode/action: [service_rate]
    is [mu(s)] ([0.] for an inactive mode, removing family (2)), and
    [switch_out_rate] is the rate at which transfer states resolve
    (the [chi(s, s')] of the commanded switch, or the big-M
    self-switch rate).  Raises [Invalid_argument] on nonpositive
    [capacity] or negative rates. *)

val to_dot :
  capacity:int ->
  arrival_rate:float ->
  service_rate:float ->
  switch_out_rate:float ->
  string
(** DOT rendering — regenerates Figure 2 of the paper. *)
