(** Compiled rule plans and substitution enumeration.

    A plan fixes the join order (the body atom scanned first, then the
    rest in textual or greedy order), the variable numbering, and the
    placement of hash guards. At run time each body atom is given a
    {!source} — the semi-naive engine uses this to evaluate the delta
    variants of a rule, incremental maintenance ({!Stratified.Live})
    to read unions of windows over the model and its scratch
    relations — and the plan enumerates every satisfying ground
    substitution exactly once, calling [emit] with the instantiated
    head tuple. Every plan of one rule enumerates the same
    substitutions under the same sources; the scan order changes only
    the work ({!probes}) and the order of the emits. *)

type span = {
  sp_rel : Relation.t;
  sp_lo : int;
  sp_hi : int;  (** The insertion positions [\[sp_lo, sp_hi)]. *)
  sp_skip : (Tuple.t -> bool) option;
      (** Candidates in the window for which this holds are not read.
          [None] costs nothing per candidate. *)
}
(** An explicit window over one relation. *)

type source =
  | Old  (** The relation as of the previous iteration. *)
  | Delta  (** Tuples new in the current iteration. *)
  | Current  (** [Old ∪ Delta]. *)
  | Spans of span list
      (** The concatenation of the listed windows, each minus the
          tuples its [sp_skip] rejects; the atom's predicate is not
          looked up in {!relations}. The caller keeps the windows
          disjoint, or a tuple in two of them is read twice. *)

type plan

val compile :
  ?pushdown:bool -> ?reorder:bool -> ?first:int -> Rule.t -> plan
(** Compile a rule. [pushdown] (default [true]) places each hash guard
    at the earliest point in the scan order where its variables are
    bound; with [false] guards run only after the full join, which
    reproduces the "selection cannot be pushed into the joins" worst
    case discussed at the end of Section 3 of the paper. [first]
    (default: none) is the body position scanned first — the outer
    loop of the join; the semi-naive engine compiles one plan per
    position and runs each variant with the one whose first atom has
    the smallest window (see {!Seminaive}). The atoms after it keep
    their textual order, or, under [reorder] (default [false]), follow
    a greedy bound-variables-first order computed from that start;
    without [first], [reorder] also picks the first atom greedily.
    Neither option changes the enumerated substitution set — nor the
    delta semantics of {!run}'s per-atom sources, which are indexed by
    the {e original} body positions.
    @raise Invalid_argument if the rule is unsafe or [first] is not a
    body position. *)

val rule_of : plan -> Rule.t
val var_count : plan -> int

val probes : plan -> int
(** Cumulative number of candidate tuples scanned by {!run} for this
    plan — one probe per tuple pulled from an index lookup, whether or
    not it survived the equality checks and guards. A cheap,
    always-maintained effort counter for the observability layer. *)

type window = {
  w_rel : Relation.t;  (** One append-only store for the predicate. *)
  w_old : int;  (** Old = insertion positions [\[0, w_old)]. *)
  w_cur : int;
      (** Delta = [\[w_old, w_cur)]; Current = [\[0, w_cur)]. Tuples at
          positions [>= w_cur] — appended by emits during the run — are
          invisible to every source: they are the next delta. *)
}
(** The three semi-naive sources as windows over one relation (see
    DESIGN.md §11): instead of materializing Old, Delta and Current as
    separate stores and merging after every iteration, the engine keeps
    a single insertion-ordered relation per predicate and two
    watermarks. *)

type relations = { window_of : string -> window option }
(** [None] = the predicate is empty/unknown. *)

val window_all : Relation.t -> window
(** The whole relation as Old (empty delta) — what a non-incremental
    caller wants for [Current] scans. *)

val current_of : (string -> Relation.t option) -> relations
(** Wrap a plain lookup: every predicate's full contents under
    {!window_all}. *)

val run :
  plan ->
  sources:source array ->
  ?fast_dedup:(hash:int -> int array -> [ `Dup | `New ]) ->
  relations ->
  emit:(Tuple.t -> unit) ->
  unit
(** Enumerate the substitutions of the plan's rule, reading body atom
    [i] from [sources.(i)], and call [emit] once per successful ground
    substitution (guards included) with the head instance.

    [fast_dedup], when provided, is consulted once per firing {e
    before} the head tuple is materialized: it receives the head
    instance's raw words ([Const.to_raw] per position, in a buffer
    owned by the plan — read it synchronously, don't retain it) and
    its [Tuple.hash_key]. Answering [`Dup] suppresses the firing with
    zero allocation; [`New] lets the tuple be built (reusing the
    already-folded hash) and passed to [emit]. The semi-naive engine
    implements it with {!Relation.mem_raw} on the head relation and
    counts firings there; without it, [emit] sees every firing (the
    path {!Naive}, the reference evaluator, takes).
    @raise Invalid_argument if [sources] length differs from the body
    length. *)
