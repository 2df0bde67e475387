(** Fixture for the documentation lint: it must be rejected.

    [undocumented] sits right below [documented]'s trailing doc
    comment, which documents [documented], not it. *)

val documented : int
(** Carries its own doc comment. *)

val undocumented : int
