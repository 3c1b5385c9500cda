(** SCC-stratified sequential evaluation.

    Evaluates the strongly connected components of the dependency graph
    bottom-up: each component runs a semi-naive fixpoint treating the
    relations of lower components as extensional. For programs with a
    deep dependency structure this avoids re-visiting completed
    components on every iteration. The enumerated set of successful
    ground substitutions — and hence the firing count — is identical to
    {!Seminaive.evaluate}'s, which the test suite checks. *)

val evaluate :
  ?pushdown:bool -> Program.t -> Database.t -> Database.t * Seminaive.stats
(** The least model plus aggregate statistics across components
    ([iterations] sums the per-component iteration counts). The input
    database is not modified.
    @raise Invalid_argument if the program fails {!Program.check}. *)

(** Incremental maintenance of the computed model under base-fact
    insertions and deletions.

    A {!Live.t} holds the full model (base + derived) and per-stratum
    support bookkeeping. {!Live.apply} folds an update batch into the
    model stratum by stratum, and every pass is the same loop:
    semi-naive rounds over a table of growing relations, each round
    firing every rule's variants with the growth since the last round
    as the changed atoms, each variant through {!Joiner.run} with the
    plan that scans its changed window first, until a round adds
    nothing. Deletion seeds the rounds with the removed tuples.
    Non-recursive strata keep exact derivation counts: one round
    enumerates the lost firings and decrements, and a tuple dies at
    zero. Recursive strata use DRed: overdelete everything a removed
    tuple might have supported (the overdeleted relations grow in the
    same rounds), rederive set-at-a-time — one join per rule over all
    overdeleted tuples, then the saved tuples propagate as rounds —
    and install the difference. Insertion is semi-naive resumed from
    the added windows; a counting stratum bumps its counts there. Work
    is proportional to the consequences of the batch, not the store: a
    deletion tombstones its victims ({!Database.remove_facts}), so
    survivors keep their positions and the indexes the next pass
    probes stay built, and every window is measured against
    {!Relation.bound}. The returned {!Live.change} is the exact net
    model difference, which is what the session runtimes propagate to
    resident workers. *)
module Live : sig
  type t

  type change = {
    c_summary : Delta.summary;
    c_added : (string * Tuple.t) list;
        (** Net tuples added to the model (base and derived), sorted by
            predicate then {!Tuple.compare}. *)
    c_removed : (string * Tuple.t) list;
        (** Net tuples removed from the model; disjoint from
            [c_added]. *)
  }

  val create : ?pushdown:bool -> Program.t -> edb:Database.t -> t
  (** Evaluate the program over [edb] and set up maintenance state.
      Tuples the [edb] seeds under derived predicates are treated like
      program facts: externally supported, never deleted by
      maintenance.
      @raise Invalid_argument if the program fails {!Program.check}. *)

  val apply : t -> Delta.Batch.t -> change
  (** Fold one update batch into the model. The batch is first
      normalized against the store ({!Delta.Batch.normalize}), so
      re-applying a batch is a no-op and an empty net effect does
      near-zero work. All deletions are processed bottom-up first, then
      all insertions.
      @raise Invalid_argument, before anything changes, if the batch
      updates a derived predicate or carries a tuple whose arity
      differs from its predicate's. *)

  val query : t -> string -> Tuple.t list
  (** Current tuples of a predicate, in {!Tuple.compare} order; [[]]
      when unbound. *)

  val database : t -> Database.t
  (** A fresh snapshot of the full model. *)

  val batches : t -> int
  (** Batches applied so far (including empty ones). *)

  val totals : t -> Delta.summary
  (** Cumulative maintenance accounting across all batches. *)
end
