(** A database: a mutable map from predicate symbols to relations.
    Every relation has the one columnar layout of {!Relation}. *)

type t

val create : unit -> t

val add_relation : t -> string -> Relation.t -> unit
(** Bind a relation to a predicate.
    @raise Invalid_argument if the predicate is already bound with a
    different arity. *)

val declare : t -> string -> int -> Relation.t
(** [declare db pred arity] returns the relation of [pred], creating an
    empty one of the given arity if absent.
    @raise Invalid_argument on arity mismatch with an existing
    relation. *)

val find : t -> string -> Relation.t option
val get : t -> string -> Relation.t
(** @raise Not_found if the predicate is unbound. *)

val mem : t -> string -> bool
val arity : t -> string -> int option

val add_fact : t -> string -> Tuple.t -> bool
(** Insert a tuple, declaring the relation on first use. Returns
    [true] iff new. *)

val predicates : t -> string list
(** Sorted list of bound predicates. *)

val cardinal : t -> string -> int
(** Number of tuples of a predicate; 0 when unbound. *)

val total_tuples : t -> int

val copy : t -> t
(** Copy every relation ({!Relation.copy}). *)

val restrict : t -> string list -> t
(** A fresh database holding only the listed predicates (those that are
    bound). Relations are copied. *)

val merge_into : dst:t -> src:t -> int
(** Union every relation of [src] into [dst]; returns the number of new
    tuples. *)

val merge_disjoint_into : dst:t -> src:t -> int
(** {!merge_into} without per-tuple membership probes
    ({!Relation.add_all_new}). {b Unsafe}: every tuple of [src] must be
    absent from [dst] — the semi-naive engine's delta/full invariant. *)

val equal : t -> t -> bool
(** Same predicates, each with equal relations. Predicates bound to
    empty relations on one side and unbound on the other are considered
    equal. *)

val pp : Format.formatter -> t -> unit
