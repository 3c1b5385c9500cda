(** Ground facts: a predicate name and one of its tuples. *)

type t = string * Tuple.t

module Tbl : Hashtbl.S with type key = t
(** Tables keyed by (predicate, tuple). *)
