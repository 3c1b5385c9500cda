(** Observability sinks for the parallel runtimes: tracing and
    metrics bundled as one value threaded through [Run_config]. *)

module Clock = Clock
module Json = Json
module Trace = Trace
module Metrics = Metrics
module Phase_timer = Phase_timer

type sinks = { trace : Trace.t; metrics : Metrics.t }

let disabled = { trace = Trace.none; metrics = Metrics.none }
let enabled s = Trace.enabled s.trace || Metrics.enabled s.metrics
