(* The batch half: set-up and the five runtime cells, each reached only
   through its layer's public functions. *)

open Datalog
open Pardatalog

(* N is fixed, never read from the machine, so numbers stay comparable
   across hosts. The simulator keeps the `datalogp par` default. *)
let nprocs = 2
let sim_nprocs = 4

type setup = {
  program : Program.t;
  edb : Database.t;
  plan : Plan.t;
  candidates : int;
  sim_rw : Rewrite.t;
  domains_rw : Rewrite.t;
  auto_rw : Rewrite.t;
  net_rw : Rewrite.t;
}

let ok_or_fail pp = function Ok v -> v | Error e -> failwith (Format.asprintf "%a" pp e)
let ok_string = ok_or_fail Format.pp_print_string

(* Parse the program, parse the facts into a database, let the planner
   pick a plan from the EDB profile, and build the four rewrites. *)
let setup ?(spans = Spans.off) (p : Inputs.prepared) =
  let span name f = Spans.span spans ~run:"setup" name f in
  let program =
    span "parse.program" (fun () ->
        ok_or_fail Parser.pp_error (Parser.program Inputs.program_text))
  in
  let edb =
    span "parse.facts" (fun () ->
        let facts = ok_or_fail Parser.pp_error (Parser.tuples p.facts_text) in
        let db = Database.create () in
        List.iter (fun (pred, t) -> ignore (Database.add_fact db pred t)) facts;
        db)
  in
  let outcome =
    span "plan.suggest" (fun () ->
        let profile = Check.Costmodel.profile_of_db edb in
        Check.Planner.suggest ~profile ~nprocs ~seed:0 program)
  in
  let plan =
    match outcome.Check.Planner.plan with
    | Some plan -> plan
    | None -> failwith "the planner certified no plan"
  in
  let general n =
    span "plan.rewrite" (fun () -> ok_string (Strategy.general ~seed:0 ~nprocs:n program))
  in
  let sim_rw = general sim_nprocs in
  let domains_rw = general nprocs in
  let auto_rw =
    span "plan.rewrite" (fun () -> ok_or_fail Plan.pp_reject (Plan.to_rewrite plan program))
  in
  let net_rw = general nprocs in
  {
    program;
    edb;
    plan;
    candidates = List.length outcome.Check.Planner.ranked;
    sim_rw;
    domains_rw;
    auto_rw;
    net_rw;
  }

type cell = Net | Seq | Sim | Domains | Domains_auto

let cells = [ Net; Seq; Sim; Domains; Domains_auto ]

let cell_name = function
  | Net -> "net"
  | Seq -> "seq"
  | Sim -> "sim"
  | Domains -> "domains"
  | Domains_auto -> "domains_auto"

let domains_config plan =
  Run_config.(default |> with_domains (Some nprocs) |> with_plan plan)

(* The workers are this executable run as `e2e.exe worker`, as
   `datalogp par --runtime net` runs `datalogp worker`. Exec, not fork:
   OCaml refuses Unix.fork for good once a process has created a
   domain, and the domain cells run in this process too. *)
let net_run s =
  Net.Net_runtime.run ~config:Run_config.default ~program:Inputs.program_text
    ~spec:Net.Wire.Spec_general ~seed:0 ~procs:nprocs ~hb_ms:100 ~hb_miss_limit:100
    ~spawn:(Net.Net_runtime.Exec Sys.executable_name) s.net_rw ~edb:s.edb

(* One evaluation: the anc relation it computed, and the runtime's
   statistics (none for the sequential engine). *)
let run_cell s cell =
  let of_result (r : Sim_runtime.result) =
    (Database.get r.Sim_runtime.answers "anc", Some r.Sim_runtime.stats)
  in
  match cell with
  | Seq ->
    let db, _ = Seminaive.evaluate s.program s.edb in
    (Database.get db "anc", None)
  | Sim -> of_result (Sim_runtime.run s.sim_rw ~edb:s.edb)
  | Domains -> of_result (Domain_runtime.run ~config:(domains_config None) s.domains_rw ~edb:s.edb)
  | Domains_auto ->
    of_result (Domain_runtime.run ~config:(domains_config (Some s.plan)) s.auto_rw ~edb:s.edb)
  | Net -> of_result (net_run s)

(* Why a result is wrong, if it is. *)
let verdict (p : Inputs.prepared) (anc, stats) =
  if not (Relation.equal anc p.model) then Some "anc differs from the sequential model"
  else
    match stats with
    | Some st when st.Stats.transport.Stats.worker_restarts > 0 -> Some "net worker restarted"
    | _ -> None

type tally = { mutable attempted : int; mutable failed : int; mutable errors : string list }

let tally () = { attempted = 0; failed = 0; errors = [] }

let fail tally msg =
  tally.failed <- tally.failed + 1;
  if List.length tally.errors < 10 then tally.errors <- msg :: tally.errors

(* One evaluation, timed with the heap compacted first (the compaction
   itself is untimed) and checked after the clock stops: the seconds, or
   why the rep failed. *)
let attempt p s cell =
  Gc.compact ();
  match Measure.time (fun () -> run_cell s cell) with
  | t, result -> ( match verdict p result with None -> Ok t | Some why -> Error why)
  | exception Overload.Overload _ -> Error "overload"
  | exception e -> Error (Printexc.to_string e)

(* One repetition of each cell, in order, recorded in [tally]: each
   cell's seconds, or None if the repetition failed. *)
let round tally p s cells =
  List.map
    (fun c ->
      tally.attempted <- tally.attempted + 1;
      match attempt p s c with
      | Ok t -> (c, Some t)
      | Error why ->
        fail tally (cell_name c ^ ": " ^ why);
        (c, None))
    cells
