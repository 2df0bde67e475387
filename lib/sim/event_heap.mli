(** Binary min-heap of timestamped events with O(log n) insertion and
    extraction.

    Ties in time are broken by insertion order, which keeps
    simulations deterministic: two events scheduled for the same
    instant fire in the order they were scheduled.  Events cannot be
    cancelled; the simulator keeps only never-cancelled controller
    timers here. *)

type 'a t

val create : unit -> 'a t
(** An empty heap. *)

val is_empty : 'a t -> bool
(** No events remain. *)

val size : 'a t -> int
(** Number of pending events. *)

val push : 'a t -> time:float -> 'a -> unit
(** [push h ~time e] schedules [e]; raises [Invalid_argument] on a
    NaN time. *)

val pop : 'a t -> (float * 'a) option
(** [pop h] extracts the earliest event as [(time, payload)]; [None]
    when empty. *)

val peek : 'a t -> (float * 'a) option
(** The earliest event as [(time, payload)], without extracting it. *)
