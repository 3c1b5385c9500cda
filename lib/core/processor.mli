(** One paper processor, independent of its transport.

    The state every runtime keeps per processor (Section 3's Q_i/T_i):
    the semi-naive engine over the base fragment, send-spec routes
    resolved once per derived predicate, sequence numbers,
    unacknowledged batches and their retransmit due-times, the
    per-channel history that the reliable layer replays,
    [(src, inc, seq)] receiver dedup, credit with pending deferral and
    outbox peaks, the sent/received/accepted counters and the work
    lost with crashed engines. Functions hand the batches to put on the
    wire to the caller's [emit]; the runtime that calls them owns the
    transport — the simulator's per-tuple rounds, the domain runtime's
    mailboxes, the net worker's socket. Tuples a processor addresses to
    itself never need a transport: {!route} [~local:true] delivers them
    into its own engine on the spot. *)

open Datalog

type batch = {
  dst : int;
  seq : int;  (** Per-channel sequence number. *)
  tuples : (string * Tuple.t) list;  (** Original predicate names. *)
  replay : bool;  (** Every tuple is a recovery replay. *)
  mutable attempt : int;  (** Transmission attempts made. *)
  mutable retry_at : float;  (** Retransmit when still unacked by then. *)
}

type route
(** One routed derived predicate's names, send specs and self-delivery
    inlet, resolved at {!create}. A {!Rewrite.t.self_routed} predicate
    has none: its tuples stay in the engine that derived them. *)

type t = private {
  pid : int;
  rewrite : Rewrite.t;  (** The rewrite [program] belongs to. *)
  program : Program.t;
  pushdown : bool;
  fragment : Database.t;
      (** Resident base facts; session patches keep it current and
          {!rebuild} starts over it. *)
  mutable engine : Seminaive.t;
  routes : route array;  (** One per routed derived predicate. *)
  capacity : int option;
  reliable : bool;
  retry_after : int -> float;
  fc : Fault.counters;
  history : unit Fact.Tbl.t array;
      (** Per destination, when [reliable]: every tuple routed there
          (the replay source, and the resend filter across engine
          lifetimes). Empty otherwise. *)
  stamp : int array;
      (** Per destination, the last production routed there: the
          resend filter within one production when no history is
          kept. *)
  mutable production : int;  (** Derived tuples routed so far. *)
  next_seq : int array;
  unacked : (int, batch) Hashtbl.t array;
  seen : (int * int * int, unit) Hashtbl.t;
  pending : (string * Tuple.t * bool) Queue.t array;
      (** Per destination: tuples awaiting credit (the bool marks
          replays). *)
  credit_used : int array;
  inflight : (int, int) Hashtbl.t array;
  sent_row : int array;
  mutable received : int;
  mutable accepted : int;
  mutable outbox_peak_rows : int;
  mutable outbox_peak_bytes : int;
  mutable credit_stalls : int;
  mutable peak_in_flight : int;
  mutable lost : Seminaive.stats;
  mutable lost_probes : int;  (** Join probes of crashed engines. *)
  mutable crashes_done : int list;  (** Rounds fired; see {!crash_due}. *)
}

val create :
  ?fc:Fault.counters ->
  ?crashes_done:int list ->
  pushdown:bool ->
  capacity:int option ->
  reliable:bool ->
  retry_after:(int -> float) ->
  Rewrite.t ->
  fragment:Database.t ->
  int ->
  t
(** Processor [pid] of the rewrite, its engine created over [fragment].
    [reliable] registers every sent batch as unacknowledged until
    {!ack}; [retry_after attempt] is the transport's backoff, in the
    unit of the [now] the driver passes to {!transmitted} and {!due}.
    [fc] (default fresh) receives the replay, ack, retransmit and
    duplicate counters; [crashes_done] (default none) seeds
    {!crash_due}. *)

val reset_channels : t -> unit
(** Forget sequence numbers, unacked and deferred batches, receipts and
    credit — a new transport lifetime. History and counters stay. *)

(** {1 Engine} *)

val rebuild : ?snapshot:Seminaive.snapshot -> t -> unit
(** Crash recovery: fold the engine's counters into [lost] and
    [lost_probes], then resume from [snapshot] or start over the base
    fragment. *)

val crash_due : t -> Fault.plan -> round:int -> Fault.crash option
(** The crash [plan] schedules here at [round], unless it has fired:
    one returned is recorded, and the record survives {!rebuild} and
    every drive, so it fires at most once per session. *)

val totals : t -> Seminaive.stats
(** Engine counters plus the work lost with crashed engines. *)

val row : ?active_rounds:int -> ?store:bool -> t -> Stats.per_proc
(** The processor's statistics row; [active_rounds] defaults to the
    iteration count. [store:false] skips measuring the store (its
    fields read 0). *)

(** {1 Sending} *)

val route :
  ?dedup:bool ->
  ?local:bool ->
  ?on_new:(string -> Tuple.t -> unit) ->
  t ->
  (string * Tuple.t) list ->
  (string * Tuple.t) list array
(** Per destination, in production order, the derived products
    (under [@out] or original names) that the send specs route there,
    under their original names. Products of a self-routed predicate
    have no route and go nowhere. A tuple travels each channel once: a
    tuple that several specs send to one destination is sent once,
    and, when the processor is [reliable], one already in that
    channel's history is not sent again. [dedup:false] sends every
    routed copy and leaves the history alone.

    [local] (the domain and net drivers) delivers the tuples addressed
    to the processor itself on the spot, through
    {!Seminaive.deliver} into its own [@in] relations, and leaves its
    own entry of the result empty. Each counts as sent on the self
    channel ([sent_row.(pid)]) and as received and accepted as
    {!receive} counts it; [on_new] sees those the engine did not know.
    No batch, sequence number or credit is involved. Without [local] (the simulator's modelled self channel)
    they are returned like any other destination's. *)

val history : t -> int -> (string * Tuple.t) list
(** Everything routed to a destination so far; empty unless
    [reliable]. *)

val enqueue : replay:bool -> t -> int -> (string * Tuple.t) list -> unit
(** Defer tuples for a destination until {!flush}. *)

val flush : ?per_tuple:bool -> t -> (batch -> unit) -> unit
(** Move deferred tuples onto the wire as far as credit allows,
    emitting each batch; a channel left with deferred tuples counts a
    credit stall. *)

val dispatch :
  replay:bool -> t -> int -> (string * Tuple.t) list -> (batch -> unit) -> unit
(** Send now when unbounded; defer and {!flush} under a capacity. *)

val ship :
  ?replay:bool ->
  ?on_new:(string -> Tuple.t -> unit) ->
  ?demand:(int -> unit) ->
  t ->
  (string * Tuple.t) list ->
  (batch -> unit) ->
  unit
(** The asynchronous drivers' send step: {!route} the products
    ([~local] unless [replay]), {!dispatch} each batch through [emit]
    and {!note_outbox}. [demand] first receives the worst channel
    demand — its new batch plus deferred and in-flight tuples — for the
    adaptive dial. *)

val pending_rows : t -> int

val has_deferred : t -> bool

val watchdog :
  Overload.limits ->
  ?since:float ->
  ?round:int ->
  ?backlog:(t -> int) ->
  t list ->
  Overload.reason option
(** Every runtime's watchdog: the first budget breached, if any. The
    deadline runs from [since], the {!Obs.Clock.now} its drive started
    (omitted by a driver without the drive clock), reported at [round]
    (default 0); then per processor the store budget and the outbox
    budget, [backlog p] (default 0, the driver's unrouted products)
    plus {!pending_rows}. *)

val note_outbox : ?rows:int -> ?bytes:(unit -> int) -> t -> unit
(** Update the outbox peak with the deferred tuples plus a driver's
    own backlog of [rows] rows and [bytes ()] bytes. *)

(** {1 Reliable layer} *)

val transmitted : t -> batch -> now:float -> int
(** Record one transmission attempt; returns its number. *)

val due : t -> now:float -> (batch -> unit) -> unit
(** Emit the unacked batches whose retry time has come, counted as
    retransmissions. *)

val ack : t -> dst:int -> seq:int -> bool
(** Release an acknowledged batch; [true] when it returned credit. *)

val ack_flush : t -> dst:int -> seq:int -> (batch -> unit) -> unit
(** {!ack}, then {!flush} the credit it returned. *)

val idle : t -> bool
(** No engine work, no unacked batch, nothing deferred. *)

(** {1 Receiving} *)

val fresh : t -> int * int * int -> bool
(** First delivery of [(src, inc, seq)]? A repeat counts as a
    suppressed duplicate. *)

val receive :
  ?on_new:(string -> Tuple.t -> unit) -> t -> string -> Tuple.t -> unit
(** Inject a delivered tuple under its [@in] name; [on_new] sees the
    ones the engine did not know. *)

(** {1 Session patches} *)

val retract : t -> (string * Tuple.t) list -> unit
(** Install net deletions (original names) into a quiescent processor:
    engine, base fragment and channel history. The rewrite, not the
    route table, tells derived tuples from base ones. *)

val insert : t -> string -> Tuple.t -> unit
(** A net base insertion resident here: fragment plus pending work. *)
