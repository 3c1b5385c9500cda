(** Immutable tuples of constants, with a cached structural hash.

    A tuple is the unit of storage in a {!Relation} and the unit of
    communication between processors in the parallel runtimes. The
    representation is abstract: construction computes the hash once,
    so every later [seen]-probe, index insert and channel-dedup lookup
    reads a cached word instead of rehashing the constant array, and
    {!equal} short-circuits on physical equality, then on differing
    cached hashes. Relations store tuples alongside their raw column
    words ({!Const.to_raw}); the tuple itself is what crosses processor
    boundaries. *)

type t

val make : Const.t array -> t
(** Owned by the tuple after construction: callers must not mutate the
    array they pass to {!make}. *)

val make_with_hash : Const.t array -> int -> t
(** [make_with_hash a h] is [make a] for callers that already computed
    [h = hash_key a] while filling [a] (the Joiner folds the hash as it
    instantiates a head). Passing a wrong hash breaks dedup — the array
    is owned by the tuple, as with {!make}. *)

val of_list : Const.t list -> t
val arity : t -> int
val get : t -> int -> Const.t

val to_array : t -> Const.t array
(** A fresh copy of the constants — safe to mutate. *)

val project : t -> int array -> t
(** [project t positions] is the sub-tuple of [t] at [positions], in
    order. *)

val project_key : t -> int array -> Const.t array
(** Like {!project} but returns the bare constants — the form hash
    functions and index lookups consume — without paying for a tuple
    header or a hash of its own. *)

val compare : t -> t -> int
val equal : t -> t -> bool

val hash : t -> int
(** The cached hash: O(1). *)

val hash_key : Const.t array -> int
(** Hash of a bare key array, consistent with [hash (make key)]. *)

val hash_proj : t -> int array -> int
(** [hash_proj t positions = hash_key (project_key t positions)],
    computed without allocating. Index inserts use this to bucket a
    tuple by its projection for free. *)

val pp : Format.formatter -> t -> unit
(** Prints as [(c1, c2, ...)]. *)

val to_string : t -> string

val of_ints : int list -> t
(** Convenience: a tuple of integer constants. *)

val of_syms : string list -> t
(** Convenience: a tuple of symbol constants. *)
