(** Growable flat arrays — the storage primitive under {!Relation}.

    A [Vec.t] is an amortized-O(1) append buffer backed by one
    contiguous array (doubled on overflow), replacing the cons-cell
    lists the relation stores and index buckets were built on: element
    [i] sits at offset [i], so scans touch sequential memory instead
    of chasing pointers. *)

type 'a t

val create : ?capacity:int -> dummy:'a -> unit -> 'a t
(** [dummy] fills unused capacity and is never returned by reads. *)

val length : 'a t -> int

val capacity : 'a t -> int
(** Current backing-array size (for tests of the growth policy). *)

val push : 'a t -> 'a -> unit
(** Append, doubling the backing array when full. *)

val get : 'a t -> int -> 'a
(** @raise Invalid_argument when the index is out of bounds. *)

val unsafe_get : 'a t -> int -> 'a
(** No bounds check: caller guarantees [0 <= i < length]. *)

val set : 'a t -> int -> 'a -> unit
(** Overwrite an existing slot.
    @raise Invalid_argument when the index is out of bounds. *)

val exists : ('a -> bool) -> 'a t -> bool
val to_list : 'a t -> 'a list

val copy : 'a t -> 'a t
(** An independent vector with the same contents (elements are shared,
    the backing array is not). O(capacity) — one [Array.copy], no
    per-element rehashing; {!Relation.copy} is built on this. *)

val clear : 'a t -> unit
(** Length becomes 0; capacity is retained. Cleared slots are
    overwritten with [dummy] so no element is kept alive. *)

val truncate : 'a t -> int -> unit
(** [truncate v n] drops every element from offset [n] on (a no-op
    when [n >= length v]); capacity is retained and the dropped slots
    are overwritten with [dummy], as by {!clear}. *)

val compact : 'a t -> unit
(** Shrink the backing array to the current length (at least 1),
    releasing slack after a load phase. *)
