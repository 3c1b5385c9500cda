(** Always-on wall-clock phase timers.

    Where {!Trace} records individual span events for offline viewing
    (and is usually disabled), a phase timer accumulates per-phase
    nanosecond totals cheaply enough to stay on for every run: one
    {!Clock.now_ns} pair per span and no allocation on the hot
    path. The runtimes surface the totals as [Stats.phase_ns].

    Not thread-safe: the simulator owns a single timer; the multicore
    runtime gives each worker domain its own and pools the
    {!totals} with {!merge_totals} after the join. *)

type t

val create : ?metrics:Metrics.t -> unit -> t
(** A fresh timer. When [metrics] is an enabled registry, every
    recorded span is also observed under the histogram
    ["phase_ns.<name>"]. *)

val time : t -> string -> (unit -> 'a) -> 'a
(** [time t name f] runs [f ()] and adds its wall-clock duration to
    the accumulator for [name]. The duration is recorded even if [f]
    raises. *)

val span :
  t -> Trace.t -> pid:int -> round:int -> Trace.phase -> (unit -> 'a) -> 'a
(** A runtime phase: {!time} [f] under its {!Trace.phase_name} and
    record it as a {!Trace.span} of [(pid, round, phase)] too. *)

val record : t -> string -> int -> unit
(** Add a measured duration (nanoseconds) directly. *)

val totals : t -> (string * int) list
(** Total nanoseconds per phase, sorted by phase name. *)

val stats : t -> string -> (int * int * int) option
(** [(count, total_ns, max_ns)] for one phase, if recorded. *)

val merge_totals :
  (string * int) list -> (string * int) list -> (string * int) list
(** Pointwise sum of two {!totals} lists, sorted by phase name. *)
