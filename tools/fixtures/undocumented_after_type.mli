(** Fixture for the documentation lint: it must be rejected.

    [undocumented] sits right below the trailing doc comments of
    [t]'s constructors, which document them, not it. *)

type t =
  | A  (** first *)
  | B  (** second *)

val undocumented : t
