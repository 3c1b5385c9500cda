(** The unified runtime interface.

    Three executors satisfy {!S}: the deterministic simulator, the
    multicore domain runtime and the multi-process net runtime. Each
    offers one [run] function over a {!Run_config.t} for one-shot
    evaluation and one [open_session] returning a live {!Session.t}
    for incremental evaluation under update streams; all three drive
    the same {!Processor} core and {!Pool} coordinator over their own
    transport. Code that must work on any of them (the CLI, the test
    harness, bench) is written against the module type. {!all} lists
    the two in-process runtimes; the net runtime lives in its own
    library and needs the program text to respawn workers, so it is
    reached through [Net.Net_runtime.runtime], which packages it as an
    {!S}. *)

module type S = sig
  val name : string
  (** ["sim"], ["domains"] or ["net"]. *)

  val run :
    config:Run_config.t ->
    Rewrite.t ->
    edb:Datalog.Database.t ->
    Sim_runtime.result
  (** One-shot evaluation: [open_session] immediately followed by
      {!Session.close}. *)

  val open_session :
    config:Run_config.t ->
    Rewrite.t ->
    edb:Datalog.Database.t ->
    Session.t
  (** Evaluate to quiescence and keep the runtime resident; the
      returned handle accepts {!Session.apply} update batches that are
      maintained incrementally instead of recomputed. *)
end

module Sim : S
(** {!Sim_runtime.run} / {!Sim_runtime.open_session}. *)

module Domains : S
(** {!Domain_runtime.run} / {!Domain_runtime.open_session}. *)

val all : (module S) list
(** The in-process runtimes, simulator first. *)

val find : string -> (module S) option
(** Look an implementation up by {!S.name}. *)
