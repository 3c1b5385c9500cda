(** One configuration record for both runtimes.

    [Run_config.t] subsumes the simulator's ablation/fault/overload
    options and the multicore executor's domain count, and carries the observability sinks ({!Obs.sinks}).
    Build a configuration from {!default} with the [with_*] builders:

    {[
      Run_config.(default |> with_fault plan |> with_capacity (Some 4))
    ]}

    Fields only one runtime understands are documented as such; the
    other runtime ignores them. *)

type t = {
  resend_all : bool;  (** Ablation A1 (simulator only). *)
  pushdown : bool;  (** Guard pushdown; [false] is ablation A3. *)
  replicate_base : bool;
      (** Ablation A4 (the in-process runtimes; the net runtime's
          workers always fragment). *)
  max_rounds : int;  (** Round budget (simulator only). *)
  network : Netgraph.t option;  (** Fixed network (simulator only). *)
  fault : Fault.plan;  (** Seeded fault plan, {!Fault.none} by default. *)
  capacity : int option;  (** Per-channel credit bound. *)
  limits : Overload.limits;  (** Resource watchdog budgets. *)
  dial : Overload.dial option;  (** Adaptive-degradation dial. *)
  domains : int option;  (** Domain count (multicore runtime only). *)
  obs : Obs.sinks;  (** Tracing / metrics sinks, disabled by default. *)
  plan : Plan.t option;
      (** Certificate to validate at startup: both runtimes call
          {!Plan.validate_exn} against the rewrite's original program
          and processor count, and refuse to run under a stale or
          unverifiable plan ({!Plan.Rejected}). *)
}

val default : t
(** Fault-free, unbounded, ablations off, disabled observability — the exact behaviour of the historical defaults of
    both runtimes. *)

val with_resend_all : bool -> t -> t
val with_pushdown : bool -> t -> t
val with_replicate_base : bool -> t -> t
val with_max_rounds : int -> t -> t
val with_network : Netgraph.t option -> t -> t
val with_fault : Fault.plan -> t -> t
val with_capacity : int option -> t -> t
val with_limits : Overload.limits -> t -> t

val with_deadline : float option -> t -> t
(** Set only the wall-clock budget of [limits], in seconds — the
    per-request plumbing used by [datalogd] to map a client deadline
    onto the watchdog without disturbing the other budgets. *)

val with_max_store_rows : int option -> t -> t
(** Set only the per-processor store budget of [limits]. *)

val with_dial : Overload.dial option -> t -> t
val with_domains : int option -> t -> t
val with_obs : Obs.sinks -> t -> t
val with_trace : Obs.Trace.t -> t -> t
val with_metrics : Obs.Metrics.t -> t -> t
val with_plan : Plan.t option -> t -> t

val of_plan : Plan.t -> t
(** {!default} carrying the given certificate; compose further with the
    [with_*] builders. *)
