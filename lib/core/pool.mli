(** The coordinator side every runtime shares: the combined EDB, base
    fragments, start-up validation, incremental maintenance, final
    pooling of the derived relations and statistics assembly.

    A runtime opens a pool, creates its {!Processor}s over the pool's
    fragments, drives them over its own transport, and answers
    {!Session} calls from the pool: {!apply} patches the EDB and the
    processors before the runtime's next drive, {!pool} and {!query}
    pool the processors' stores: each derived predicate is read under
    its {!Rewrite.stored_pred} name, and a self-routed predicate's
    relations, disjoint across processors by their guards, are
    concatenated without a duplicate check, where the others are
    unioned. *)

open Datalog

type t

val create : ?config:Run_config.t -> Rewrite.t -> edb:Database.t -> t
(** Validate the plan certificate, the capacity and the limits, and
    combine [edb] with the program's facts.
    @raise Plan.Rejected on a stale or unverifiable certificate.
    @raise Invalid_argument on a capacity below 1, an invalid limit,
    or a program fact on a derived predicate. *)

val edb : t -> Database.t
(** The combined EDB, current as of the last {!apply}. *)

val is_derived : t -> string -> bool

val fragment : ?replicate:bool -> Rewrite.t -> Database.t -> int -> Database.t
(** The base facts of an EDB resident at a processor (all of them with
    [replicate]). *)

val processors :
  reliable:bool ->
  retry_after:(int -> float) ->
  t ->
  Processor.t array
(** One {!Processor} per pid over its fragment, with the
    configuration's pushdown, capacity and base replication. *)

val apply :
  t ->
  Processor.t array ->
  drive:(Session.outcome -> unit) ->
  Update_batch.t ->
  Session.outcome
(** Maintain the model under a batch with {!Datalog.Stratified.Live},
    install the net patch into the EDB and [processors] (deletions
    retracted everywhere, base insertions at the processors hosting
    them), then call [drive] with the outcome before returning it. *)

val pool : t -> Database.t list -> Database.t * int
(** The answers — each store's derived relations
    ({!Rewrite.stored_pred}) under their original names, over the
    combined EDB — and the number of tuples pooled. *)

val query : t -> Database.t list -> string -> Tuple.t list
(** One predicate of {!pool}, sorted. *)

val stores : Processor.t array -> Database.t list
(** The processors' engine stores, read in place ({!Seminaive.store}):
    nothing is copied until {!pool} or {!query} copies the derived
    relations it answers with. Read them only while the processors are
    not running. *)

val add_faults : Stats.faults -> Stats.faults -> Stats.faults

val stats :
  ?rounds:int ->
  ?trace:int array list ->
  ?transport:Stats.transport ->
  ?phase_ns:(string * int) list ->
  ?comms:Stats.comms ->
  t ->
  per_proc:Stats.per_proc array ->
  channel_tuples:int array array ->
  pooled:int ->
  faults:Stats.faults ->
  peak_in_flight:int ->
  Stats.t
(** Assemble a report; [rounds] defaults to the largest iteration
    count, and the maintenance counters come from the pool. The
    configuration's metrics registry receives the report's runtime
    series here, and only here: the [runtime.*] counters, the
    [runtime.peak_in_flight] gauge and [joiner.probes]. *)

val local_stats :
  ?rounds:int ->
  ?trace:int array list ->
  ?phase_ns:(string * int) list ->
  ?comms:Stats.comms ->
  ?mailbox_drops:int ->
  ?active_rounds:(Processor.t -> int) ->
  t ->
  Fault.counters ->
  Processor.t array ->
  pooled:int ->
  Stats.t
(** {!stats} over in-process processors: their rows, channels, credit
    peaks and fault counters plus the driver's own [counters]. *)
