(** Request workloads (the Service Requestor of the paper, and
    richer sources for the examples).

    The paper's SR is a single-mode Poisson source.  Beyond it we
    provide a piecewise-stationary source (the paper's Section III
    remark about a PM estimating the input rate of a slowly varying
    workload), a two-phase MMPP (bursty traffic), and trace replay.
    A workload is a stateful stream of absolute arrival times. *)

open Dpm_prob

type t

val poisson : rate:float -> t
(** Stationary Poisson arrivals; [rate > 0]. *)

val piecewise : segments:(float * float) list -> final_rate:float -> t
(** [piecewise ~segments ~final_rate] changes rate over time:
    [(until, rate)] pairs with strictly increasing [until] apply
    [rate] up to each boundary; [final_rate] applies afterwards.
    Rates must be nonnegative (a zero-rate segment is silent — a
    fleet dispatcher routes rate 0 to a deactivated server); with a
    zero [final_rate] the stream {e ends} after the last boundary.
    Sampling is by thinning against the maximum rate, so boundaries
    need not align with arrivals. *)

val mmpp : rates:float array -> switch_rate:float array array -> t
(** A Markov-modulated Poisson process: [rates.(k)] while the
    modulating chain occupies phase [k], [switch_rate] its generator
    off-diagonals (diagonal ignored).  Starts in phase 0. *)

val trace : float list -> t
(** Replay absolute arrival times (finite, strictly increasing,
    positive).  The stream ends when the trace does.  Raises
    [Invalid_argument] on a NaN, infinite or non-increasing time. *)

val of_intervals : float list -> t
(** Replay a trace given as inter-arrival {e gaps} (each positive and
    finite); the first arrival lands at the first gap.  The common
    on-disk form of measured request logs. *)

val load_trace : ?intervals:bool -> string -> (t, string) result
(** [load_trace path] reads one float per line ([#] comments and
    blank lines ignored) as absolute arrival times, or, with
    [~intervals:true], as inter-arrival gaps ({!of_intervals}).
    [Error] on I/O failure, an unparsable line, or non-finite,
    non-monotone or non-positive values. *)

val segments_of_spec : string -> ((float * float) list * float, string) result
(** Parse the piecewise-rate grammar shared by the CLI and the
    adaptive harness: comma-separated [RATE@UNTIL] entries with
    strictly increasing boundaries, ending in a bare final [RATE] —
    e.g. ["0.083@4000,0.333@8000,0.125"].  Returns the
    [(segments, final_rate)] pair accepted by {!piecewise}. *)

val of_spec : rate:float -> string -> (t, string) result
(** Build a workload from the CLI spec grammar: [poisson] (at
    [rate]), [piecewise:<r1>@<t1>,...,<rfinal>]
    ({!segments_of_spec}), [mmpp:<r1>:<r2>:<switch>] (two phases,
    symmetric switching), [trace-file:<path>] (absolute times), or
    [intervals-file:<path>] (inter-arrival gaps). *)

val next_arrival : t -> Rng.t -> now:float -> float option
(** [next_arrival w rng ~now] draws the first arrival strictly after
    [now]; [None] when the source is exhausted (only for {!trace}).
    Calls must have nondecreasing [now] — the workload is a stream,
    not a random-access process. *)

val mean_rate_hint : t -> float
(** A representative rate (exact for {!poisson}; time- or
    phase-averaged otherwise) — used by examples to size time-out
    values the way the paper does (n = inter-arrival time, n = half
    of it). *)
