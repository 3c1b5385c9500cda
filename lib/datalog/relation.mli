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
    pointers.

    Positions are stable: a tuple keeps its insertion position until
    {!compact}, the one operation that moves positions. Removal
    ({!remove_all}) leaves a tombstone at the victim's position, which
    every reader skips; survivors keep their positions and every
    materialized index stays valid. Hence two sizes: {!cardinal}
    counts the live tuples, {!bound} is one past the highest position
    ever handed out, the limit of every window ([lo]/[hi]) and
    watermark a caller holds. The two are equal while the relation
    holds no tombstone. *)

type t

val create : ?initial_size:int -> arity:int -> unit -> t

val arity : t -> int

val cardinal : t -> int
(** The number of live tuples. *)

val bound : t -> int
(** The position bound: positions run over [\[0, bound)], and the
    next tuple added lands at [bound]. It counts tombstones too, so
    [cardinal r <= bound r]; windows and watermarks are measured
    against it, never against {!cardinal}. *)

val is_empty : t -> bool
(** No live tuple. *)

val mem : t -> Tuple.t -> bool

val mem_raw : t -> hash:int -> int array -> bool
(** [mem_raw r ~hash raws]: does [r] contain the tuple whose raw
    encoding is [raws] (one {!Const.to_raw} word per position) and
    whose [Tuple.hash_key] is [hash]? The semi-naive duplicate filter:
    answers from the columns without materializing a tuple. *)

val add : t -> Tuple.t -> bool
(** [add r t] inserts [t] at position {!bound}; returns [true] iff [t]
    was new. A removed tuple is absent, so adding it again appends a
    fresh position: a window over the positions added since some
    watermark sees it as new.
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
(** The live tuples, in insertion order. *)

val fold : (Tuple.t -> 'a -> 'a) -> t -> 'a -> 'a
(** The live tuples, in insertion order. *)

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
    order, tombstones skipped. The probe sees tuples added after
    staging and skips tuples removed after staging; it is invalidated
    by {!compact} and {!clear}, and it owns a scratch key buffer, so
    it must not be re-entered from its own callback. *)

val scan_cutoff : int
(** The widest window a {!matcher} probe answers by a columnar scan
    rather than through the index. *)

val iter_range : t -> lo:int -> hi:int -> (Tuple.t -> unit) -> unit
(** Iterate the live tuples with insertion positions in [\[lo, hi)],
    in insertion order. *)

val copy : t -> t
(** An independent relation with the same contents: a structural
    clone — flat copies of the element vector, columns, dedup chains
    and tombstones, no rehashing — which is what keeps
    [Database.copy] cheap on big models. Positions, and so {!bound}
    and any watermark over the original, mean the same in the copy. *)

val clear : t -> unit

val remove_all : t -> Tuple.t list -> int
(** [remove_all r victims] deletes the listed tuples and returns how
    many were present (absent ones and repeats are ignored). Each
    victim is found through its dedup chain, unlinked from it and its
    position tombstoned, so the cost is O(victims), whatever the size
    of [r]. Survivors keep their positions, {!bound} is unchanged,
    every materialized index stays valid, and staged {!matcher}s and
    window watermarks held over [r] stay usable. Its one caller is
    {!Database.remove_facts}, which every deletion goes through; the
    semi-naive hot path never removes. *)

val compact : t -> unit
(** Squeeze out every tombstone, release slack (shrink the stores to
    their live size) and drop all materialized indexes (they are
    rebuilt on the next {!lookup} that needs them). Contents and their
    relative order are unchanged, but survivors after a tombstone move
    to lower positions and {!bound} falls to {!cardinal}: this is the
    one operation that moves positions, so it invalidates staged
    {!matcher}s and every window watermark a caller holds over [r]. *)

val of_list : arity:int -> Tuple.t list -> t
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

val index_count : t -> int
(** Number of materialized indexes (for tests). *)
