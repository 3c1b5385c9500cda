(** Wire format of the multi-process runtime.

    Every frame on a coordinator-worker socket is a 4-byte big-endian
    length prefix followed by a [Marshal]-encoded {!frame}. Frames are
    closure-free plain data; tuples travel as {!wconst} arrays in which
    symbols are carried by name, because interned symbol ids are
    per-process. Workers rebuild their rewrite deterministically from
    the program source text and a {!scheme_spec} rather than receiving
    closures: hash-based routing agrees across processes because every
    worker interns the same symbols in the same order (program text
    first, then the EDB in wire order — derived tuples cannot invent
    new symbols). *)

(** {1 Portable tuples} *)

type wconst = Wint of int | Wsym of string

type wtuple = wconst array

type wbatch = (string * wtuple) list
(** (predicate, tuple) pairs — the payload unit of a [Data] frame. *)

type wrel = {
  wr_pred : string;
  wr_arity : int;
  wr_tuples : wtuple list;
}

val of_const : Datalog.Const.t -> wconst
val to_const : wconst -> Datalog.Const.t
val of_tuple : Datalog.Tuple.t -> wtuple
val to_tuple : wtuple -> Datalog.Tuple.t
val of_batch : (string * Datalog.Tuple.t) list -> wbatch
val to_batch : wbatch -> (string * Datalog.Tuple.t) list

val of_db : Datalog.Database.t -> wrel list
(** Serialize every relation (predicate order as listed by the
    database — computed once, shipped identically to every worker). *)

val add_wrel : Datalog.Database.t -> wrel -> int
(** Declare and insert; returns the number of tuples actually new. *)

(** {1 Worker configuration} *)

(** How the worker rebuilds the coordinator's rewrite. Mirrors the CLI
    scheme selection; [Spec_plan] carries a plan-certificate JSON. The
    [example2] and adaptive schemes are not representable: their
    construction is stateful at the coordinator (random EDB partition,
    shared dial) and cannot be replayed deterministically in another
    process. *)
type scheme_spec =
  | Spec_q of { ve : string list; vr : string list }
  | Spec_nocomm
  | Spec_example3
  | Spec_wolfson
  | Spec_tradeoff of float
  | Spec_general
  | Spec_plan of string

type restore = {
  rs_pid : int;
  rs_round : int;  (** Local rounds executed when the dump was taken. *)
  rs_tuples : wbatch;
      (** Derived tuples under their engine names ([@in]/[@out], or
          the original name of a self-routed predicate): the
          coordinator's accumulation of every delta checkpoint
          received so far. *)
}

type config = {
  cf_program : string;  (** Datalog source text. *)
  cf_spec : scheme_spec;
  cf_nprocs : int;  (** Paper processors. *)
  cf_procs : int;  (** Worker processes; pid [i] lives on worker [i mod procs]. *)
  cf_seed : int;
  cf_pushdown : bool;
  cf_fault : Pardatalog.Fault.plan;
  cf_partition : float;
      (** Shim partition probability: with a [Fault.none] plan a
          positive partition still forces the reliable layer on. *)
  cf_capacity : int option;
  cf_limits : Pardatalog.Overload.limits;
      (** The worker enforces the store/outbox budgets; the deadline
          belongs to the coordinator. *)
  cf_edb : wrel list;  (** Full EDB (program facts merged). *)
  cf_crashes_done : (int * int list) list;
      (** Scheduled crash rounds already fired, per pid — so a
          restarted worker does not re-fire them. *)
  cf_restores : restore list;  (** Checkpoint dumps for own pids. *)
  cf_hb_ms : int;  (** Heartbeat period. *)
}

(** {1 Frames} *)

(** Cumulative per-processor counters, snapshotted into heartbeats,
    pre-crash notices and collected models so the coordinator can fold
    the work of dead incarnations into the pooled statistics. *)
type psnap = {
  ps_row : Pardatalog.Stats.per_proc;
      (** {!Pardatalog.Processor.row}; the store is measured only in
          {!Model} replies. *)
  ps_sent_row : int array;  (** Tuples sent per destination. *)
}

type frame =
  | Hello of { worker : int; inc : int; attempts : int }
      (** First frame on every connection. [attempts] = connect tries
          beyond the first (counted as reconnects). *)
  | Config of config
  | Data of {
      src : int;
      dst : int;
      inc : int;  (** Sender incarnation: stale acks are discarded. *)
      seq : int;
      attempt : int;  (** Fair-lossy shim input. *)
      replay : bool;
      batch : wbatch;
    }
  | Tack of { src : int; dst : int; inc : int; seq : int }
      (** Transport ack / credit grant for [Data src->dst seq].
          Originated by the coordinator the moment it records the
          payload for replay — coordinator receipt guarantees eventual
          delivery, and an ack can never die with a worker. *)
  | Inject of { dst : int; batch : wbatch }
      (** Coordinator-side history replay into a restored processor;
          not acked, not sequence-numbered (receiver dedup is by
          content). *)
  | Patch of { dels : wbatch }
      (** Session update (coordinator to worker, between drives): net
          deletions under their original predicate names. The worker
          retracts each from every owned engine (derived tuples under
          both [@out] and [@in], or a self-routed predicate's own
          name) and purges its channel-dedup and
          checkpoint-cover tables so a later re-derivation travels the
          channels again. Only sent to live configured workers: a
          worker rebuilt afterwards starts from the patched
          [cf_edb]/history and must never see the frame. *)
  | Update of { dst : int; batch : wbatch }
      (** Session update: net base-fact insertions for processor
          [dst], injected under their original (base) names — pending
          work for the next drive. Idempotent (the engine discards
          known tuples), so redelivery to a restarted worker whose
          [cf_edb] already contains them is harmless. *)
  | Collect of { gen : int }
      (** End-of-drive answer collection: the worker replies with one
          {!Model} per owned processor and keeps running. Every drive
          (the initial evaluation, each session batch, an overload
          stop) ends with exactly one collection; after a passed
          termination probe every engine is quiescent, after an
          overload the models are partial. *)
  | Model of { gen : int; pid : int; snap : psnap; answers : wrel list }
      (** Reply to {!Collect}: processor [pid]'s answers and counters
          (store measured). [gen] echoes the collect generation so the
          coordinator can discard answers from a collection that a
          worker restart cancelled. The coordinator pools the last
          collected models and snapshots at [close]. *)
  | Probe of { epoch : int }
  | Status of {
      worker : int;
      inc : int;
      epoch : int;
      idle : bool;  (** No engine work, no unacked batch, no deferred output. *)
      frames_received : int;  (** Frames processed since [Config]. *)
    }
  | Heartbeat of { worker : int; inc : int; snaps : psnap list }
  | Checkpoint of {
      pid : int;
      inc : int;
      round : int;
      tuples : wbatch;
          (** Derived tuples NOT covered by an earlier checkpoint of
              this incarnation (or by the restore dump it started
              from) — a delta; the coordinator accumulates. *)
      seen : (int * int * int) list;
          (** (src, inc, seq) receipts NOT covered by an earlier
              checkpoint of this incarnation — a delta, like [tuples];
              the coordinator accumulates and skips covered frames
              when replaying history into a restarted processor. *)
    }
  | Crashing of { pid : int; round : int; snaps : psnap list }
      (** Courtesy notice flushed just before a scheduled
          self-SIGKILL: records the crash round and the counters that
          die with the process. *)
  | Breach of { reason : Pardatalog.Overload.reason }
  | Stop
      (** End of the session: the worker answers with {!Bye} and
          exits. It reports no answers; those travelled in the last
          {!Model}s (on an overload the coordinator sends [Collect]
          right before [Stop]). *)
  | Bye of {
      worker : int;
      inc : int;
      faults : Pardatalog.Stats.faults;
      credit_stalls : int;
      peak_in_flight : int;
    }

val encode : frame -> string
(** Length-prefixed; ready to write. *)

val max_frame_bytes : int

(** {1 Reading} *)

type reader

val reader : unit -> reader

val feed :
  reader ->
  Unix.file_descr ->
  [ `Frames of frame list * int  (** decoded frames, bytes consumed *)
  | `Eof
  | `Again  (** nothing available on a nonblocking fd *) ]
(** Read once from [fd] and decode every complete frame. A blocking
    caller should [select] first. @raise Failure on an oversized or
    torn frame. *)

(** {1 Writing} *)

type outq
(** A nonblocking output queue: encoded frames waiting for a socket
    that may not take them all at once. Both ends queue their output
    so a full socket buffer never blocks them away from reading. *)

val outq : unit -> outq
val push : outq -> frame -> unit
val pending : outq -> bool
(** Some frame, or part of one, is still unwritten. *)

val clear : outq -> unit

val flush : outq -> Unix.file_descr -> [ `Wrote of int | `Gone ]
(** Write queued frames, in order, until the queue is empty or [fd]
    would block; [`Wrote n] counts the bytes written by this call.
    [`Gone] when the peer has closed the connection ([EPIPE],
    [ECONNRESET], [EBADF]). *)
