(** Multi-producer single-consumer mailboxes for domains.

    The channel abstraction of Section 3 requires only that data put on
    channel [ij] reaches processor [j], error-free, in finite time. A
    mutex/condition-variable queue per receiving domain provides exactly
    that on shared memory.

    A mailbox is unbounded: credit-based backpressure bounds the data
    in flight per channel at the sender ({!Processor}), so control
    traffic (acks, tokens, poison pills) can never deadlock behind
    data.

    A mailbox can be {!close}d — the poison pill. A closed mailbox
    counts and drops further pushes (visible via {!dropped} and a
    [Logs.Debug] message on the [pardatalog.mailbox] source), and a
    blocked consumer wakes immediately, so a crashed or finished peer
    can never leave a domain stuck in [Condition.wait]. *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> 'a -> unit
(** Enqueue and wake the consumer. Safe from any domain. Dropped (and
    counted) when the mailbox is closed. *)

val push_all : 'a t -> 'a list -> unit
(** [push_all mb xs] enqueues every element of [xs] in order under one
    lock acquisition and wakes the consumer once — the bulk variant of
    {!push} behind the runtimes' per-phase send coalescing (one
    delivery per (phase, destination) instead of one per message).
    On a closed mailbox the whole list is dropped and counted.
    [push_all mb []] is a no-op that takes no lock. *)

val close : 'a t -> unit
(** Close the mailbox: wakes a blocked consumer and makes further
    pushes counted no-ops. Idempotent; safe from any domain. *)

val is_closed : 'a t -> bool

val drain : 'a t -> 'a list
(** Dequeue everything currently present, in arrival order, without
    blocking (possibly [[]]). *)

val drain_blocking : 'a t -> 'a list
(** Like {!drain} but blocks until at least one element is present —
    or the mailbox is closed, in which case whatever is queued
    (possibly [[]]) is returned immediately. *)

val drain_timeout : 'a t -> seconds:float -> 'a list
(** Like {!drain_blocking} but gives up after [seconds], returning [[]]
    on timeout. Used by workers that must periodically wake to
    retransmit unacknowledged messages or check a deadline. *)

val dropped : 'a t -> int
(** Pushes discarded because the mailbox was closed. *)
