(** Database constants.

    A constant is either an integer or an interned symbol (a lowercase
    identifier or quoted string in the concrete syntax). Constants are
    totally ordered and hashable, so they can key relations and be fed
    to discriminating functions, and every constant has a one-word raw
    encoding ({!to_raw}) that relation columns store. *)

type t =
  | Int of int
  | Sym of Symtab.sym

val int : int -> t
val sym : string -> t
(** [sym s] interns [s] and wraps it. *)

val compare : t -> t -> int
val equal : t -> t -> bool

val to_raw : t -> int
(** The flat one-word encoding slab columns store, injective on all
    constants: [to_raw a = to_raw b] iff [equal a b]. Integers in
    \[-2{^61}, 2{^61}) and symbols are their payload shifted left by
    one, the low bit telling ints (0) from symbols (1). Wider integers
    are interned into a process-wide, mutex-guarded table and encoded
    as negative odd words, which no symbol uses. Raw words are only
    meaningful inside one process: the wire carries constants. *)

val hash : t -> int
(** A well-mixed hash (splitmix64 finalizer), suitable as the basis of
    discriminating functions: consecutive integers do not map to
    consecutive hashes. *)

val hash_seeded : int -> t -> int
(** [hash_seeded seed c] is an independent hash family member; distinct
    seeds give (practically) independent functions. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
