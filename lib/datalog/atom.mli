(** Atoms: a predicate symbol applied to terms. *)

type t = {
  pred : string;
  args : Term.t array;
}

val make : string -> Term.t list -> t
val make_a : string -> Term.t array -> t
val arity : t -> int

val vars : t -> string list
(** Variables of the atom, in first-occurrence order, without
    duplicates. *)

val is_ground : t -> bool

val to_tuple : t -> Tuple.t option
(** [Some] tuple of the arguments when the atom is ground. *)

val rename_pred : string -> t -> t
(** Replace the predicate symbol, keeping the arguments. *)

val subst : (string * Const.t) list -> t -> t
(** Apply a substitution to the atom's variables. Unbound variables are
    left in place. *)

val matches_tuple : t -> Tuple.t -> bool
(** Whether a tuple unifies with the atom's argument pattern: constants
    must be equal and positions sharing a variable must hold equal
    constants. (Used by the sending rules, whose bodies carry the
    consuming atom's pattern.) Staged: [matches_tuple a] compiles the
    pattern once and returns the test.
    @raise Invalid_argument on arity mismatch. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
