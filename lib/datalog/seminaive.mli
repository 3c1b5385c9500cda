(** Incremental semi-naive evaluation.

    The engine enumerates every successful ground substitution of every
    rule exactly once: an iteration fires, for each rule and each body
    position [m] holding a changed predicate, the variant in which
    atoms before [m] read the pre-iteration state, atom [m] reads the
    delta, and atoms after [m] read their union.

    Each rule is compiled once per body position ({!Joiner.compile}
    [~first]), at {!create} and {!restore}. Every join — the
    {!bootstrap}'s and each delta variant's — runs the plan whose
    first atom has the smallest window under that variant's sources
    (Old: the pre-iteration prefix, Delta: the new suffix, Current:
    both), ties going to textual order: on a linear recursion the
    delta, not the whole base relation, is the outer loop once it is
    the smaller side. The choice changes only {!join_probes} and the
    order in which a step produces its tuples; every variant
    enumerates the same substitutions, so firings, new tuples and
    duplicate firings do not depend on it.

    Every firing is checked against the head relation's raw columns
    ({!Relation.mem_raw}) before its tuple is built: a duplicate costs
    no allocation, and a new tuple is appended without a second
    probe. There is one storage layout and one emit path.

    Besides whole-program evaluation ({!evaluate}), the engine exposes
    an incremental interface — {!inject} external tuples, {!step} one
    iteration, observe the newly derived tuples — which is exactly what
    the parallel runtimes need to drive one processor's program:
    received tuples are injected, one iteration is run, and the fresh
    tuples are routed to the channels. *)

type stats = {
  iterations : int;  (** Delta steps executed (bootstrap excluded). *)
  firings : int;
      (** Successful ground substitutions enumerated, guards included —
          the quantity of Definition 4 / Theorems 2 and 6. *)
  new_tuples : int;  (** Distinct derived tuples produced. *)
  duplicate_firings : int;
      (** Firings whose head tuple had already been derived. *)
}

val pp_stats : Format.formatter -> stats -> unit

type t

val create :
  ?pushdown:bool -> ?reorder:bool -> Program.t -> edb:Database.t -> t
(** Build an engine over a copy of [edb]. Base-predicate facts of the
    program are loaded into the database; derived-predicate facts are
    queued as if injected. [pushdown] and [reorder] are passed to
    {!Joiner.compile}.
    @raise Invalid_argument if the program fails {!Program.check}. *)

val inject : t -> string -> Tuple.t -> bool
(** Queue an externally produced tuple (e.g. received from another
    processor). Returns [false] when the tuple is already known (in
    the database or already queued) — such tuples are discarded, which
    implements the receive-step duplicate elimination of the paper. *)

type inlet
(** One predicate of one engine, resolved once for repeated
    {!deliver}s. It stays valid for the engine's lifetime, across
    {!step}s and {!retract_facts}. *)

val inlet : t -> string -> arity:int -> inlet
(** The inlet of [pred], declaring the relation on first use. *)

val deliver : inlet -> Tuple.t -> bool
(** {!inject} through a resolved inlet: the predicate is looked up
    once, not per tuple. Meant for repeated deliveries to one
    predicate — e.g. a processor's tuples addressed to itself,
    re-entering its engine under the [@in] name. *)

val bootstrap : t -> (string * Tuple.t) list
(** Fire every rule once against the initial database and queue the
    results. Returns the newly queued (pred, tuple) pairs. Must be
    called exactly once, before the first {!step}. *)

val step : t -> (string * Tuple.t) list
(** Run one semi-naive iteration over the queued tuples; returns the
    newly derived (previously unknown) tuples, which are left queued
    for the next step. An empty result with an empty queue means local
    fixpoint. *)

val has_pending : t -> bool
(** Whether any tuple is queued for the next step. *)

val run_to_fixpoint : t -> unit
(** {!bootstrap} (if not yet done) then {!step} until quiescent. *)

val resume : t -> (string * Tuple.t) list
(** Drive the pending delta to a local fixpoint and return every tuple
    newly derived along the way, in derivation order. Work is
    proportional to the consequences of the queued tuples, not the
    store: a quiescent engine returns [[]] immediately. This is the
    live-session primitive — {!inject} a small update batch, [resume],
    and only the rules the batch can reach re-fire.
    @raise Invalid_argument before {!bootstrap}. *)

val retract_facts : t -> (string * Tuple.t) list -> int
(** Remove concrete facts from the engine's store (pairs naming absent
    tuples or unknown predicates are ignored); returns how many tuples
    were actually removed. Every predicate's window is re-pinned to
    the post-removal store, so nothing is left pending. Only legal on
    a quiescent engine — this installs a net-deletion patch computed
    by the incremental maintenance layer ({!Stratified.Live}); it does
    not itself propagate consequences.
    @raise Invalid_argument if the engine has pending work. *)

val database : t -> Database.t
(** A fresh snapshot of the engine's database: base relations plus
    every derived tuple known so far, including still-queued ones. *)

val store : t -> Database.t
(** The same contents as {!database}, without the copy: the engine's
    own store, read in place. For counting, pooling and answering
    between steps; the caller must not modify it, and what it reads
    changes with the next {!inject}, {!deliver} or {!step}. *)

type snapshot
(** A resumable checkpoint: the processed database and the pending
    delta, kept separate so that {!restore} resumes the semi-naive
    induction exactly where it stopped (a merged snapshot would lose
    the firings the pending tuples still owe). *)

val snapshot : t -> snapshot
(** Copy the engine's state. The engine is unaffected and the snapshot
    does not alias it. *)

val restore : ?pushdown:bool -> ?reorder:bool -> Program.t -> snapshot -> t
(** A fresh engine resuming from a {!snapshot} of an engine running
    the same program: processed relations, pending delta and the
    bootstrapped flag are restored; statistics restart from zero (the
    caller accounts for work lost with the dead engine). The snapshot
    may be restored any number of times.
    @raise Invalid_argument if the program fails {!Program.check}. *)

val stats : t -> stats

val join_probes : t -> int
(** Sum of {!Joiner.probes} over the engine's plans — every rule's
    plan for every first atom: the candidate tuples scanned by the
    join machinery so far. *)

val per_rule_firings : t -> (Rule.t * int) list
(** Successful ground substitutions per rule, in program order — e.g.
    to compare exit-rule and recursive-rule workloads. *)

val evaluate :
  ?pushdown:bool -> ?reorder:bool -> Program.t -> Database.t ->
  Database.t * stats
(** One-shot sequential evaluation: the least model plus statistics.
    The input database is not modified. *)


