(** Timeline events.

    One recorded point (or scope edge) on the trace timeline, in the
    Chrome trace-event vocabulary: [Begin]/[End] pairs delimit a
    duration on one track, [Instant] marks a point in time.  Events
    carry typed arguments so consumers (Perfetto, provenance, tests)
    need no string re-parsing. *)

(** A typed event argument value. *)
type arg = Str of string | Int of int | Float of float | Bool of bool

(** Chrome trace-event phase: duration begin/end, or an instant. *)
type phase = Begin | End | Instant

(** One recorded event.  [ts] is absolute wall-clock seconds
    ([Unix.gettimeofday]); the exporter rebases onto the recorder
    epoch.  [tid] is the recording domain's id, which becomes the
    Perfetto track. *)
type t = {
  ts : float;
  name : string;
  phase : phase;
  tid : int;
  args : (string * arg) list;
}

val compare_ts : t -> t -> int
(** Order by timestamp (stable sorts preserve per-domain emission
    order for equal stamps). *)

val phase_code : phase -> string
(** Chrome [ph] field: ["B"], ["E"], or ["i"]. *)
