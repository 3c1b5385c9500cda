(** A small metrics registry: named counters, gauges and histograms.

    Like {!Trace}, the registry is zero-cost when disabled — every
    update is a single flag test — so instrumentation can sit on hot
    paths of both runtimes without perturbing their behaviour.
    Thread-safe.

    The snapshot is versioned JSON ([{"schema": 1, ...}]), following
    the same versioning convention as [Stats.to_json] (itself at
    schema 5). The parallel runtimes write their [runtime.*] counters,
    the [runtime.peak_in_flight] gauge and [joiner.probes] once, from
    the final [Stats] report, so those always equal the [Stats]
    counters of the run. *)

type t

val none : t
(** The disabled registry: all updates are no-ops, all reads return
    zero / empty. *)

val create : unit -> t
val enabled : t -> bool

val incr : ?by:int -> t -> string -> unit
(** Add [by] (default 1) to a counter, creating it at zero first. *)

val set_gauge : t -> string -> int -> unit
val max_gauge : t -> string -> int -> unit
(** [max_gauge t name v] sets the gauge to [max current v]. *)

val observe : t -> string -> float -> unit
(** Record a histogram observation (count / sum / min / max and
    power-of-two buckets). *)

val counter : t -> string -> int
(** Current counter value, 0 if absent or disabled. *)

val gauge : t -> string -> int
(** Current gauge value, 0 if absent or disabled. *)

val hist_count : t -> string -> int
(** Number of observations recorded under a histogram name. *)

val counters : t -> (string * int) list
(** All counters, sorted by name. *)

val to_json : t -> string
(** Versioned snapshot:
    [{"schema":1,"counters":{...},"gauges":{...},"histograms":{...}}]
    with names sorted for deterministic output. *)

val write : t -> string -> unit
(** Write [to_json] to a file (valid empty snapshot when disabled). *)
