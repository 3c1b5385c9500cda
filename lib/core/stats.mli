(** Execution metrics of a parallel run.

    These quantities make the paper's qualitative claims measurable:
    redundancy (duplicate firings across processors), communication
    (tuples on inter-processor channels), base-relation residency
    (sharing vs. fragmentation), and load balance. *)

type per_proc = {
  pid : Pid.t;
  firings : int;  (** Successful ground substitutions at this processor. *)
  new_tuples : int;  (** Distinct tuples this processor derived. *)
  duplicate_firings : int;  (** Firings whose result was already known locally. *)
  join_probes : int;
      (** Candidate tuples the processor's joins scanned
          ({!Datalog.Seminaive.join_probes}), crashed engines
          included. *)
  iterations : int;  (** Semi-naive steps executed. *)
  tuples_sent : int;  (** Tuples put on channels (self-channel included). *)
  tuples_received : int;  (** Tuples taken from channels. *)
  tuples_accepted : int;  (** Received tuples that were new after dedup. *)
  base_resident : int;  (** EDB tuples resident at this processor. *)
  active_rounds : int;  (** Rounds in which the processor fired or received. *)
  store_rows : int;
      (** Tuple-store rows at the end of the run: base fragment plus
          derived relations — a routed tuple under both [@out] and
          [@in], a self-routed one once. *)
  store_bytes : int;
      (** Word-size estimate of the store footprint
          ({!Overload.db_bytes}). *)
  outbox_peak_rows : int;
      (** Largest outbox + unsent-channel backlog observed. *)
  outbox_peak_bytes : int;  (** Word-size estimate of that peak. *)
}

type faults = {
  drops : int;  (** Transmission attempts lost by the fault injector. *)
  dups_injected : int;  (** Extra copies created by the fault injector. *)
  dups_suppressed : int;
      (** Deliveries discarded by the receiver-side duplicate
          suppression of the reliable layer. *)
  delays : int;  (** Messages given extra latency. *)
  reorders : int;  (** Messages jittered out of order + inboxes shuffled. *)
  retransmits : int;  (** Payload retransmissions after an ack timeout. *)
  acks : int;  (** Transport acknowledgements delivered. *)
  crashes : int;  (** Processor failures executed. *)
  recoveries : int;  (** Processors rebuilt by bucket reassignment. *)
  replayed : int;
      (** Tuples resent from peers' channel histories during
          recovery. *)
  checkpoints : int;  (** Engine snapshots taken. *)
  restores : int;  (** Recoveries that resumed from a checkpoint. *)
  mailbox_drops : int;
      (** Pushes discarded because the target mailbox was already
          closed (previously silent). *)
  credit_stalls : int;
      (** Times a sender wanted to transmit but had to defer for lack
          of channel credit. *)
  alpha_raises : int;  (** Adaptive-dial increments (backlog high). *)
  alpha_decays : int;  (** Adaptive-dial decrements (backlog drained). *)
}

val no_faults : faults
(** All-zero counters — the value reported by fault-free runs. *)

type transport = {
  reconnects : int;
      (** Socket connections (re-)established beyond each worker's
          first successful dial: extra connect attempts plus
          post-crash re-dials. *)
  wire_retransmits : int;
      (** Payload frames retransmitted over a real socket after an ack
          timeout (a subset of {!faults.retransmits} for the net
          runtime; 0 for in-process runtimes). *)
  heartbeat_misses : int;
      (** Heartbeat intervals that elapsed without news from a live
          worker, as seen by the failure detector. *)
  worker_restarts : int;  (** Worker processes respawned by the supervisor. *)
  bytes_sent : int;  (** Bytes written to worker sockets by the coordinator. *)
  bytes_received : int;  (** Bytes read from worker sockets. *)
}
(** Wire-level counters of the multi-process runtime. All zero
    ({!no_transport}) for the in-process runtimes. *)

val no_transport : transport
(** All-zero transport counters. *)

type comms = {
  bulk_pushes : int;
      (** Coalesced mailbox deliveries: each is one lock acquisition
          and one consumer wake-up carrying a whole phase's data
          traffic for one destination ({!Mailbox.push_all}). *)
  bulk_messages : int;
      (** Data messages those deliveries carried.
          [bulk_messages / bulk_pushes] is the mean coalescing factor —
          1.0 means batching bought nothing. *)
}
(** Send-coalescing counters of the shared-memory domain runtime;
    {!no_comms} for runtimes that push each message individually. *)

val no_comms : comms
(** All-zero coalescing counters. *)

type incr = {
  batches_applied : int;
      (** Update batches folded into the session (empty ones
          included). *)
  tuples_inserted : int;  (** Net model tuples added across batches. *)
  tuples_deleted : int;  (** Net model tuples removed across batches. *)
  tuples_rederived : int;
      (** Overdeleted tuples DRed proved still derivable and kept. *)
  tuples_overdeleted : int;
      (** Tuples provisionally deleted by DRed's overdeletion pass. *)
  incr_firings : int;
      (** Rule firings spent on maintenance (counting enumeration +
          DRed propagation + the insertion passes). *)
}
(** Incremental-maintenance counters of a session
    ({!Runtime.open_session}); {!no_incr} for one-shot runs. *)

val no_incr : incr
(** All-zero incremental counters. *)

type t = {
  nprocs : int;
  rounds : int;
  per_proc : per_proc array;
  channel_tuples : int array array;  (** [.(i).(j)] = tuples sent i→j. *)
  pooled_tuples : int;  (** Tuples moved by the final pooling step. *)
  trace : int array list;
      (** Per round (chronological), the number of tuples each processor
          derived — the parallelism profile. The first row is the
          initialization step (the paper's "evaluate initialization
          rule"), so there are [rounds + 1] rows. Empty for runtimes
          without a global round structure (the domain runtime). *)
  faults : faults;
      (** Reliable-delivery and recovery counters; {!no_faults} when
          the run executed on the idealized architecture. *)
  transport : transport;
      (** Wire-level counters; {!no_transport} unless the run crossed
          process boundaries (the net runtime). *)
  peak_in_flight : int;
      (** Largest per-channel in-flight occupancy observed. Tracked
          only when a channel capacity is set (0 otherwise), and then
          guaranteed [<= capacity] by the credit protocol. *)
  phase_ns : (string * int) list;
      (** Wall-clock nanoseconds per executor phase (sorted by phase
          name, summed across processors), accumulated by
          [Obs.Phase_timer]. The phase names are
          {!Obs.Trace.phase_name} values. Empty for runtimes that do
          not time their phases. *)
  incr : incr;
      (** Incremental-maintenance counters; {!no_incr} unless the
          stats describe a live session. *)
  comms : comms;
      (** Mailbox send-coalescing counters; {!no_comms} unless the
          runtime batches its sends (the domain runtime). *)
}

val frontier_profile : t -> int list
(** Total tuples derived per round, in order. *)

val peak_parallelism : t -> int
(** The largest number of processors that derived something in one
    round (0 when no trace). *)

val total_firings : t -> int
val total_new_tuples : t -> int
val total_duplicate_firings : t -> int
val total_join_probes : t -> int

val total_messages : ?include_self:bool -> t -> int
(** Tuples sent over channels; by default the self-channels [i→i] —
    which involve no inter-processor communication — are excluded. *)

val used_channels : ?include_self:bool -> t -> (Pid.t * Pid.t) list
(** Channels that carried at least one tuple. *)

val total_base_resident : t -> int

val total_store_rows : t -> int
(** Sum of per-processor tuple-store rows. *)

val total_store_bytes : t -> int
(** Sum of per-processor store-footprint estimates. *)

val load_imbalance : t -> float
(** Max over processors of firings, divided by the mean (1.0 = perfectly
    balanced; [nan] when nothing fired). *)

val redundancy_vs : sequential_firings:int -> t -> float
(** [(parallel - sequential) / sequential]: 0.0 for a non-redundant run
    (Theorems 2 and 6); positive when work is duplicated. *)

val pp : Format.formatter -> t -> unit
(** A compact multi-line report. *)

val to_json : ?scheme:string -> ?outcome:string -> t -> string
(** A stable, versioned machine-readable snapshot. The top-level
    object carries ["schema": 5]; future field additions keep existing
    keys and bump the schema only on incompatible changes. Shared by
    [datalogp par --json] and the [datalogd] query protocol.

    Schema 2 added two additive attribution fields so that partial
    results can be explained without re-parsing CLI output:
    [scheme] (default ["unspecified"]) names the plan or scheme the
    run executed under (e.g. ["nocomm"], ["general"], ["adaptive"]);
    [outcome] (default ["ok"]) is how the run ended — ["ok"], or the
    structured abort kind ({!Overload.reason_kind}: ["deadline"],
    ["store_budget"], ["outbox_budget"], or ["round_budget"]).

    Schema 3 adds the additive ["transport"] object ({!transport}:
    reconnects, wire retransmits, heartbeat misses, worker restarts,
    bytes sent/received) so a recovery by the multi-process runtime's
    supervisor is attributable from [par --json].

    Schema 4 adds the additive ["incr"] object ({!incr}: batches
    applied, net tuples inserted/deleted, DRed overdeletions and
    rederivations, maintenance firings) reported by session runs
    ({!Runtime.open_session}); all zero for one-shot runs.

    Schema 5 adds the additive ["comms"] object ({!comms}: coalesced
    mailbox deliveries and the messages they carried) reported by the
    domain runtime's per-phase send batching; all zero elsewhere. It
    also carries the additive ["join_probes"] key, in ["totals"] and in
    every ["per_proc"] row. *)

val pp_summary : Format.formatter -> t -> unit
(** A one-line summary. *)
