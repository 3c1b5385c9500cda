(** Deterministic socket-level fault shim.

    The coordinator passes every [Data] frame it routes through the
    shim, which asks the in-process fault layer
    ({!Pardatalog.Fault.deliveries}) — a pure hash of the fault-plan
    seed and the frame coordinates (channel, sequence number,
    transmission attempt) — whether the frame is dropped, duplicated
    or delayed. The shim adds only its own loss rule, the net-only
    {e partition} fault: a channel can go dark for a whole window of
    frames, modelling a link cut rather than independent losses.

    Scope: the shim models a lossy {e payload} plane only. Control
    frames (acks, probes, heartbeats, stop) are never faulted — they
    stand for the runtime's own bookkeeping, not the network — and
    bytes are never corrupted (TCP already guarantees integrity; what
    it cannot guarantee, and what the shim models, is liveness).
    Fair-lossiness is inherited from the plan: an attempt numbered
    [>= Fault.drop_ceiling] is always delivered, so retransmission
    terminates even across a partition. *)

type t

val create :
  plan:Pardatalog.Fault.plan ->
  partition:float ->
  Pardatalog.Fault.counters ->
  t
(** [partition] = probability that a channel's current window (16
    consecutive frames) is cut, in [0, 1). Drops (partition cuts
    included), duplicates, delays and reorders are tallied into the
    counters. *)

type verdict = {
  v_copies : int;  (** Copies to deliver: 0 (dropped), 1 or 2. *)
  v_delay_ms : int;
      (** Extra latency before delivering the first copy (0 =
          immediate); a duplicate follows at once. *)
}

val verdict : t -> src:int -> dst:int -> seq:int -> attempt:int -> verdict
(** The fate of one [Data] frame. Deterministic in (plan seed, src,
    dst, seq, attempt) and in the per-channel frame index (for the
    partition windows), which is itself deterministic for a fixed
    frame arrival order and harmless to replay divergence otherwise:
    correctness never depends on {e which} frames are cut. *)
