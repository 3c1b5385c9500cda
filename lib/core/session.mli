(** Live evaluation sessions.

    A session is the stateful generalization of a one-shot [run]: the
    runtime keeps its engines (and, for the multi-process runtime, its
    worker processes) resident between calls, so the computed model can
    be maintained under a stream of base-fact update batches instead of
    being recomputed from scratch. Open one with
    {!Runtime.S.open_session}, fold update batches in with {!apply},
    read the current model with {!query} / {!model}, and {!close} to
    pool the final answers and statistics — [run config rw ~edb] is
    exactly [open_session] followed immediately by [close].

    Maintenance is delegated to {!Datalog.Stratified.Live} (derivation
    counting over non-recursive strata, DRed over recursive ones); the
    runtimes install the resulting net patch into their resident
    distributed state and re-enter their ordinary drive loop, so every
    invariant of the one-shot path — routing, dedup, faults, credit,
    overload — holds for the incremental path too. *)

open Datalog

type result = {
  answers : Database.t;
      (** Pooled output: every original derived predicate under its
          original name, unioned over processors, plus the base
          relations as of the last applied batch. *)
  stats : Stats.t;
}
(** What {!close} returns — the same shape a one-shot [run] produces.
    [stats.incr] carries the session's maintenance counters. *)

type outcome = {
  oc_added : (string * Tuple.t) list;
      (** Net tuples the batch added to the model (base and derived),
          sorted by predicate then {!Tuple.compare}. *)
  oc_removed : (string * Tuple.t) list;
      (** Net tuples the batch removed; disjoint from [oc_added]. *)
  oc_summary : Delta.summary;  (** Maintenance work accounting. *)
}
(** The effect of one {!apply}: the exact net model difference. An
    update that re-asserts a present fact (or retracts an absent one)
    contributes nothing. *)

exception Closed of string
(** Raised (with the runtime name) by every operation on a closed
    session. *)

type t
(** A session handle. Handles are single-threaded: callers serialize
    {!apply} / {!query} / {!close}. *)

val v :
  runtime:string ->
  apply:(Update_batch.t -> outcome) ->
  query:(string -> Tuple.t list) ->
  model:(unit -> Database.t) ->
  close:(unit -> result) ->
  t
(** Used by runtime implementations to build a handle; not meant for
    clients. *)

val runtime : t -> string
(** Name of the runtime serving this session ("sim", "domains",
    "net"). *)

val apply : t -> Update_batch.t -> outcome
(** Fold one update batch into the live model and drive the resident
    runtime back to quiescence. Batches are normalized first, so
    re-applying a batch is a no-op and an empty batch does near-zero
    work.
    @raise Closed on a closed session.
    @raise Invalid_argument, before anything changes, if the batch
    updates a derived predicate or carries a tuple whose arity differs
    from its predicate's. *)

val query : t -> string -> Tuple.t list
(** Current tuples of a predicate (derived predicates under their
    original names), in {!Tuple.compare} order; [[]] when unbound.
    @raise Closed on a closed session. *)

val model : t -> Database.t
(** A fresh snapshot of the full current model, assembled from the
    resident distributed state (not from the maintenance oracle) — the
    same pooling {!close} performs, without closing.
    @raise Closed on a closed session. *)

val close : t -> result
(** Pool the final answers and statistics and release the session's
    resources (worker processes included). Further operations raise
    {!Closed}.
    @raise Closed on an already-closed session. *)
