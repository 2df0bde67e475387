(** Minimal JSON values, parser, and compact printer.

    The tracing layer sits below every other library in the repo (so
    that [Dpm_obs.Span] can emit events without a dependency cycle),
    which rules out pulling in a JSON package.  This module is the
    small, self-contained subset the repo needs: Chrome trace-event
    export, provenance and checkpoint round-tripping, and reading the
    benchmark contract.

    Numbers are represented as [float] (as in JSON itself); non-finite
    floats print as [null], mirroring [Dpm_obs.Report.to_json]. *)

(** A JSON document. *)
type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Parse one JSON document (surrounding whitespace allowed).  Errors
    carry a byte offset and a short description. *)

val to_string : t -> string
(** Compact single-line rendering; object keys keep their order. *)

val escape : string -> string
(** JSON string-escape the contents (no surrounding quotes): quotes,
    backslashes, and control characters become their backslash
    escapes. *)

val float_str : float -> string
(** Shortest round-trippable decimal for a finite float; ["null"] for
    nan/infinities. *)

val member : string -> t -> t option
(** Field lookup in an [Obj]; [None] for other constructors. *)

val to_float : t -> float option
(** [Num x] payload. *)

val to_int : t -> int option
(** [Num x] truncated, when [x] is integral. *)

val to_str : t -> string option
(** [Str s] payload. *)
