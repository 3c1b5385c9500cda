(** Mutable sets of tuples with on-demand hash indexes.

    A relation stores tuples of one arity, deduplicated. Lookups by a
    pattern of bound positions build (and thereafter maintain) a hash
    index keyed by the projection on those positions.

    Storage layout (see DESIGN.md §11 and §16): elements live in a
    growable flat array ({!Vec}) in insertion order, and each index
    maps the {e hash} of a projection to a flat bucket of tuples —
    inserts and probes are allocation-free, with candidates re-checked
    against the key to absorb hash collisions.

    Every relation is {e slab-backed}: one unboxed int column per
    position mirrors [Const.to_raw] of every stored constant (an
    injective encoding, wide integers included), dedup is by
    whole-tuple hash chains verified against those columns, and index
    probes compare raw int words instead of chasing boxed tuple
    pointers. *)

type t

val create : ?initial_size:int -> arity:int -> unit -> t

val arity : t -> int
val cardinal : t -> int
val is_empty : t -> bool

val mem : t -> Tuple.t -> bool

val mem_raw : t -> hash:int -> int array -> bool
(** [mem_raw r ~hash raws]: does [r] contain the tuple whose raw
    encoding is [raws] (one {!Const.to_raw} word per position) and
    whose [Tuple.hash_key] is [hash]? The semi-naive duplicate filter:
    answers from the columns without materializing a tuple. *)

val add : t -> Tuple.t -> bool
(** [add r t] inserts [t]; returns [true] iff [t] was new.
    @raise Invalid_argument on arity mismatch. *)

val add_all : t -> t -> int
(** [add_all dst src] inserts every tuple of [src] into [dst]; returns
    the number of tuples that were new. *)

val add_new : t -> Tuple.t -> unit
(** {!add} without the membership probe. {b Unsafe}: the caller must
    guarantee the tuple is absent from the relation — the semi-naive
    engine uses it to merge a delta whose tuples were already checked
    against the destination when they were derived. *)

val add_all_new : t -> t -> int
(** [add_new] for every tuple of [src]; returns their count. Same
    precondition: [src] and [dst] must be disjoint. *)

val iter : (Tuple.t -> unit) -> t -> unit
(** In insertion order. *)

val fold : (Tuple.t -> 'a -> 'a) -> t -> 'a -> 'a
(** In insertion order. *)

val to_list : t -> Tuple.t list

val sorted_elements : t -> Tuple.t list
(** Elements in {!Tuple.compare} order: a canonical form for equality
    tests and printing. *)

val lookup : t -> positions:int array -> key:Const.t array -> Tuple.t list
(** All tuples whose projection on [positions] equals [key]. The first
    call with a given [positions] pattern builds an index, which later
    {!add}s keep up to date. [positions = [||]] returns all tuples. *)

val iter_matching :
  t -> positions:int array -> key:Const.t array -> (Tuple.t -> unit) -> unit
(** Allocation-free {!lookup}: applies the function to each matching
    tuple directly from the index bucket, in insertion order. *)

val matcher :
  t -> positions:int array ->
  (Const.t array -> lo:int -> hi:int -> (Tuple.t -> unit) -> unit)
(** Staged, windowed {!iter_matching}: [matcher r ~positions] resolves
    the index at most once and returns a probe function, so the join
    inner loop ({!Joiner.run}) pays the index lookup per run instead
    of per candidate. [lo]/[hi] restrict the probe to tuples whose
    insertion position is in [\[lo, hi)] — the semi-naive
    Old/Delta/Current windows over one append-only store. Index
    buckets hold strictly ascending positions, so a windowed probe
    binary-searches the lower bound and walks only in-range
    candidates; windows at most {!scan_cutoff} wide are instead
    answered by scanning the raw key columns directly over
    [\[lo, hi)], skipping the index (and deferring its construction)
    entirely. Both paths enumerate the same tuples in the same
    order. The probe sees tuples added after staging; it is
    invalidated by {!compact} and {!clear}, and it owns a scratch key
    buffer, so it must not be re-entered from its own callback. *)

val scan_cutoff : int
(** The widest window a {!matcher} probe answers by a columnar scan
    rather than through the index. *)

val iter_range : t -> lo:int -> hi:int -> (Tuple.t -> unit) -> unit
(** Iterate the tuples with insertion positions in [\[lo, hi)], in
    insertion order. *)

val copy : t -> t
(** An independent relation with the same contents: a structural
    clone — flat copies of the element vector, columns and dedup
    chains, no rehashing — which is what keeps [Database.copy] cheap
    on big models. *)

val clear : t -> unit

val remove_all : t -> (Tuple.t -> bool) -> int
(** [remove_all r victim] deletes every tuple for which [victim] holds
    and returns how many were removed. Survivors keep their relative
    insertion order but their positions shift, and all materialized
    indexes are dropped (rebuilt lazily) — so, like {!compact}, this
    invalidates staged {!matcher}s and any window watermarks the caller
    holds over [r]. Its one caller is {!Database.remove_facts}, which
    every deletion goes through; the semi-naive hot path never
    removes. *)

val compact : t -> unit
(** Release slack: shrink the element store to its current size and
    drop all materialized indexes (they are rebuilt on the next
    {!lookup} that needs them). Contents are unchanged. *)

val of_list : arity:int -> Tuple.t list -> t
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

val index_count : t -> int
(** Number of materialized indexes (for tests). *)
