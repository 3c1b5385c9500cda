(** Signed update batches — the currency of incremental maintenance.

    A {!Batch.t} is an ordered stream of base-fact insertions and
    deletions. {!Batch.normalize} collapses it to its net effect
    against the current store (last operation per tuple wins, no-ops
    dropped), which is what the maintenance algorithms consume: the
    two phases of {!Stratified.Live.apply} see disjoint effective add
    and remove sets. *)

type op = Insert | Delete

type update = { u_op : op; u_pred : string; u_tuple : Tuple.t }

module Batch : sig
  type t

  val empty : t
  val is_empty : t -> bool

  val size : t -> int
  (** Number of raw updates (before normalization). *)

  val of_list : update list -> t
  val to_list : t -> update list

  val add : t -> op -> string -> Tuple.t -> t
  (** Append one update (batches are small; O(n)). *)

  val insert : string -> Tuple.t -> update
  val delete : string -> Tuple.t -> update

  val preds : t -> string list
  (** Sorted predicates mentioned by the batch. *)

  val normalize :
    t ->
    present:(string -> Tuple.t -> bool) ->
    (string * Tuple.t) list * (string * Tuple.t) list
  (** [(adds, removes)]: the batch's net effect against the store
      described by [present]. The last operation on each (pred, tuple)
      wins; insertions of present tuples and deletions of absent ones
      are dropped, so the two lists are disjoint and re-applying a
      batch normalizes to nothing. Order of first occurrence is kept. *)
end

(** Per-batch maintenance accounting, surfaced through
    [Stats.to_json] schema 4. *)
type summary = {
  s_inserted : int;
  s_deleted : int;
  s_rederived : int;
  s_overdeleted : int;
  s_firings : int;
}

val empty_summary : summary
val add_summary : summary -> summary -> summary
val pp_summary : Format.formatter -> summary -> unit
