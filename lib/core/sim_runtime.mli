(** Deterministic round-based executor for rewritten programs.

    Implements the paper's parallel execution structure on the abstract
    architecture of Section 3 — {i evaluate initialization; repeat
    processing, sending, receiving until termination} — with one
    synchronous round per repeat. Every processor is simulated in turn,
    channels are instrumented, and the run is fully deterministic, which
    makes communication and redundancy exactly countable. Termination is
    the global quiescence condition: all processors idle and all
    channels empty.

    With a non-trivial {!Fault.plan} the run additionally models lossy
    channels and crashing processors. Payload tuples then travel over a
    reliable-delivery layer — per-channel sequence numbers, receiver-side
    duplicate suppression, acknowledgements and bounded retransmission
    with exponential backoff — and a crashed processor is rebuilt by
    bucket reassignment: a survivor re-creates the lost engine from its
    base fragment (or from the latest checkpoint) and every peer replays
    its channel history. For every plan that leaves at least one live
    processor, the pooled answers equal the fault-free run. A round now
    has the phases: fault schedule (crash / recover), sending,
    retransmission, delivery, receiving, processing, checkpointing,
    termination test; crashes scheduled after global quiescence never
    fire. *)

val log_src : Logs.src
(** Per-round debug logging ([Logs.Debug]): new-tuple and channel
    counters. Crash and recovery events log at [Logs.Info]. *)

type result = Session.result = {
  answers : Datalog.Database.t;
      (** The pooled output: every original derived predicate, under its
          original name, unioned over processors — plus the base
          relations as given. *)
  stats : Stats.t;
}

exception Round_budget_exceeded of { round : int; stats : Stats.t }
(** Raised when [max_rounds] is exhausted. Carries the partial
    statistics accumulated so far ([pooled_tuples] is 0: outputs are
    not pooled on an aborted run), so callers can see how far the
    evaluation got — e.g. which processors were still active and what
    the channels carried. *)

val run :
  ?config:Run_config.t -> Rewrite.t -> edb:Datalog.Database.t -> result
(** Execute a rewritten program. The extensional database [edb] is
    distributed to processors according to the rewrite's residency map;
    the original program's base facts are added to [edb] first. The
    configuration defaults to {!Run_config.default}; with the default
    (disabled) {!Obs.sinks} the instrumented executor takes the exact
    historical code path and reproduces its message and firing counts.
    Equivalent to {!open_session} followed immediately by
    {!Session.close}.
    @raise Round_budget_exceeded when [config.max_rounds] is exceeded.
    @raise Overload.Overload when a limit of [config.limits] is
    breached; the exception carries the partial statistics and the
    offending processor.
    @raise Failure when a tuple is routed along a missing channel of
    [config.network].
    @raise Invalid_argument on an invalid configuration or a program
    fact on a derived predicate ({!Pool.create}). *)

val open_session :
  ?config:Run_config.t -> Rewrite.t -> edb:Datalog.Database.t -> Session.t
(** Run the evaluation to quiescence as {!run} does, but keep the
    processors, channel state and fault machinery resident and return
    a live {!Session.t}. {!Session.apply} folds a base-fact update
    batch into the model: the net patch is computed by
    {!Datalog.Stratified.Live}, net deletions are retracted from every
    resident engine (and the channel histories and checkpoints they
    would resurrect from), net base insertions are injected at the
    processors hosting them, and the round loop re-runs to quiescence —
    under the same fault plan, credit bounds and watchdog as the
    initial drive. [config.max_rounds] is the cumulative budget.
    @raise Round_budget_exceeded / Overload.Overload / Failure as
    {!run}, from [open_session] or any later [apply]. *)
