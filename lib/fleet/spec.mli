(** Static description of a heterogeneous server fleet.

    A fleet is a list of {e groups} — identical servers sharing one
    service provider, queue capacity, and routing weight — plus the
    cluster-level economics: boot/shutdown transition rates and
    energies, the power a deactivated server still draws, and the
    delay weight [w] of Eqn. (3.1) applied to every per-server solve.

    Servers are numbered flat, [0 .. num_servers - 1], groups in
    declaration order and servers within a group contiguous.  When
    [k] servers are active, the active set is the flat prefix
    [0 .. k-1] and the dispatcher routes the total Poisson stream by
    Bernoulli thinning proportional to routing weights — so each
    active server sees an independent Poisson stream and the
    hierarchical decomposition is exact for a fixed active set
    (Chitsaz et al., PAPERS.md). *)

open Dpm_core

type group = private {
  name : string;  (** label for reports *)
  sp : Service_provider.t;  (** the servers' SP model *)
  queue_capacity : int;  (** per-server queue bound [Q >= 1] *)
  count : int;  (** number of identical servers [>= 1] *)
  routing_weight : float;  (** dispatcher share weight [> 0] *)
  off_power : float;
      (** power (W) a deactivated server of this group still draws *)
}
(** One homogeneous slice of the fleet. *)

type t = private {
  groups : group array;
  weight : float;  (** Eqn. (3.1) delay weight for per-server solves *)
  boot_rate : float;  (** rate of a commanded server boot [> 0] *)
  boot_energy : float;  (** energy (J) per completed boot *)
  shutdown_rate : float;  (** rate of a commanded shutdown [> 0] *)
  shutdown_energy : float;  (** energy (J) per completed shutdown *)
  min_active : int;  (** the cluster never drops below this [>= 1] *)
  loss_penalty : float;
      (** cluster-level cost (J) per rejected request — prices lost
          traffic into the stay cost so scaling out can beat shedding *)
}
(** A validated fleet description. *)

val group :
  ?routing_weight:float ->
  ?off_power:float ->
  name:string ->
  sp:Service_provider.t ->
  queue_capacity:int ->
  count:int ->
  unit ->
  group
(** Build one group.  [routing_weight] defaults to 1 (uniform
    dispatch), [off_power] to 0.  Raises [Invalid_argument] on a
    non-positive count, capacity, or weight, or a negative/non-finite
    power. *)

val create :
  ?weight:float ->
  ?boot_rate:float ->
  ?boot_energy:float ->
  ?shutdown_rate:float ->
  ?shutdown_energy:float ->
  ?min_active:int ->
  ?loss_penalty:float ->
  group list ->
  t
(** Assemble a fleet.  [weight] defaults to 1, the transition rates
    to 1, the transition energies to 0, [min_active] to 1,
    [loss_penalty] to 0 (lost requests are free, as in the
    single-server Eqn. (3.1) objective — set it to make the cluster
    scale out under overload instead of shedding).  Raises
    [Invalid_argument] on an empty group list, duplicate group names,
    non-finite economics, or [min_active] outside
    [[1, num_servers]]. *)

val num_servers : t -> int
(** Total server count across groups. *)

val num_groups : t -> int
(** Number of groups. *)

val group_of_server : t -> int -> int
(** [group_of_server t i] is the group index of flat server [i];
    raises [Invalid_argument] out of range. *)

val active_in_group : t -> active:int -> group:int -> int
(** How many servers of [group] are active when the flat prefix of
    [active] servers is on. *)

val group_rate : t -> total_rate:float -> active:int -> group:int -> float
(** The Poisson rate routed to {e each} active server of [group] when
    [active] servers are on and the fleet-wide arrival rate is
    [total_rate]: [total_rate * (w_g / sum of active weights)].
    [0] when the group has no active server.  Requires
    [1 <= active <= num_servers]. *)

val server_rate : t -> total_rate:float -> active:int -> server:int -> float
(** Same, for flat server [server]; [0] when [server >= active]. *)

val base_system : t -> int -> Sys_model.t
(** [base_system t g] is the composed SYS of group [g] at a
    placeholder arrival rate of 1 — rebuild it at the routed rate
    with {!Dpm_core.Sys_model.with_arrival_rate} before solving. *)

val max_power : t -> int -> float
(** [max_power t g] is the largest mode power of group [g]'s SP —
    the pessimistic per-server draw used when a solve fails. *)

val pp : Format.formatter -> t -> unit
(** One-line summary ([N servers in G groups, ...]). *)
