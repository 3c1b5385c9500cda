(** Seeded, deterministic fault plans for the parallel runtimes.

    The paper's abstract architecture assumes reliable channels and
    processors that never fail; every theorem is stated over that
    idealization. A fault plan relaxes it in a reproducible way: each
    message transmission may be dropped, duplicated, delayed or
    reordered, and each processor may crash at a scheduled round and
    come back after a scheduled downtime. Every decision is a pure
    hash of the plan seed and the event coordinates (channel, sequence
    number, transmission attempt), so a plan replays identically on
    the deterministic runtime and is schedule-independent on the
    domain runtime.

    The runtimes pair a plan with a reliable-delivery layer
    (per-channel sequence numbers, receiver-side duplicate
    suppression, acknowledgements, bounded retransmission with
    exponential backoff) and with crash recovery by
    discriminating-function bucket reassignment, so that for every
    plan that leaves at least one live processor the pooled answers
    still equal the sequential evaluation (Theorem 1 under
    failures). Channels are {i fair-lossy}, not adversarial: a
    transmission attempt numbered {!drop_ceiling} or higher is never
    dropped, which bounds retransmission and guarantees progress. *)

type crash = {
  cr_pid : Pid.t;  (** Logical processor that fails. *)
  cr_round : int;
      (** Round at which it fails: global round index on the simulated
          runtime, the processor's local semi-naive iteration count on
          the domain (per drive) and net runtimes. *)
  cr_down : int;
      (** Rounds out of service before recovery begins (simulated
          runtime; the domain runtime recovers immediately). At least
          1. *)
}

type plan = {
  seed : int;
  drop : float;  (** Per-transmission drop probability, in [0, 1). *)
  dup : float;  (** Per-transmission duplication probability. *)
  reorder : float;
      (** Per-message probability of a small delivery jitter (1-2
          rounds), which lets later messages overtake it; also the
          per-round probability that a processor's inbox is shuffled
          before injection. *)
  delay : float;  (** Per-message probability of an added latency. *)
  max_delay : int;  (** Largest added latency, in rounds (>= 1). *)
  crashes : crash list;
  checkpoint_every : int option;
      (** Snapshot each processor's engine every this many rounds, so
          recovery resumes from the snapshot instead of re-deriving
          from the base fragment. *)
}

val none : plan
(** The idealized architecture: no faults, no checkpoints. Runtimes
    bypass the delivery layer entirely, reproducing the exact message
    counts of the fault-free engine. *)

val is_none : plan -> bool

val make :
  ?seed:int ->
  ?drop:float ->
  ?dup:float ->
  ?reorder:float ->
  ?delay:float ->
  ?max_delay:int ->
  ?crashes:crash list ->
  ?checkpoint_every:int ->
  unit ->
  plan
(** Build a validated plan.
    @raise Invalid_argument if a probability is outside [0, 1), a
    crash has [cr_round < 0] or [cr_down < 1], [max_delay < 1], or
    [checkpoint_every < 1]. *)

val drop_ceiling : int
(** Transmission attempts numbered [>= drop_ceiling] are never
    dropped: the fair-lossy bound that makes retransmission
    terminate. *)

type fate = {
  f_drop : bool;  (** This transmission attempt is lost. *)
  f_dup : bool;  (** A second copy is delivered. *)
  f_delay : int;  (** Extra latency rounds from the delay fault. *)
  f_jitter : int;  (** Extra rounds from the reorder fault (overtaking). *)
}

val fate : plan -> src:Pid.t -> dst:Pid.t -> seq:int -> attempt:int -> fate
(** The (deterministic) fate of one transmission attempt of payload
    [seq] on channel [src -> dst]. *)

val ack_dropped :
  plan -> src:Pid.t -> dst:Pid.t -> seq:int -> attempt:int -> bool
(** Whether the acknowledgement of that attempt is lost (same
    fair-lossy bound). *)

val reorder_inbox : plan -> pid:Pid.t -> round:int -> bool
(** Whether processor [pid]'s inbox is shuffled before injection this
    round. *)

val shuffle : plan -> pid:Pid.t -> round:int -> 'a array -> unit
(** Deterministic Fisher-Yates shuffle keyed by (seed, pid, round). *)

val crash_at : plan -> pid:Pid.t -> round:int -> crash option
(** The crash scheduled for [pid] exactly at [round], if any. Drivers
    ask {!Processor.crash_due}, which records the firing: a scheduled
    crash fires at most once per session on every runtime. *)

val retransmit_after : attempt:int -> int
(** Rounds to wait for an acknowledgement before retransmitting: a
    bounded exponential backoff. *)

type counters = {
  mutable n_drops : int;
  mutable n_dups_injected : int;
  mutable n_dups_suppressed : int;
  mutable n_delays : int;
  mutable n_reorders : int;
  mutable n_retransmits : int;
  mutable n_acks : int;
  mutable n_crashes : int;
  mutable n_recoveries : int;
  mutable n_replayed : int;
  mutable n_checkpoints : int;
  mutable n_restores : int;
}
(** Mutable accumulator used by the runtimes while executing. *)

val counters : unit -> counters
(** A fresh all-zero accumulator. *)

val deliveries :
  ?cut:bool ->
  plan ->
  counters ->
  src:Pid.t ->
  dst:Pid.t ->
  seq:int ->
  attempt:int ->
  int * fate
(** Every runtime's transmission attempt meets the plan here: the
    copies to deliver — 0 when its {!fate} drops it or the transport's
    own rule [cut]s it, 2 when duplicated, else 1 — and the fate, whose
    delay and jitter the transport turns into latency. Drops, dups,
    delays and jitters (reorders) are tallied into [counters]. *)

val freeze :
  ?mailbox_drops:int ->
  ?credit_stalls:int ->
  ?alpha_raises:int ->
  ?alpha_decays:int ->
  counters ->
  Stats.faults
(** An immutable copy for the final report. The optional arguments fill
    the overload-control counters (default 0), which are tracked by the
    runtimes rather than the fault layer. *)

val parse_crashes : string -> (crash list, string) result
(** Parse a comma-separated crash schedule
    ["PID\@ROUND[+DOWN],..."], e.g. ["1\@3,2\@5+2"]. *)

val pp : Format.formatter -> plan -> unit
