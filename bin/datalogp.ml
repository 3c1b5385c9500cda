(* datalogp — command-line front end for the parallel Datalog framework.

   Subcommands:
     run       sequential evaluation (semi-naive, naive or stratified)
     query     evaluate and print the tuples matching a pattern
     par       parallel evaluation under a chosen scheme and runtime
     dong      the decomposition baseline of Dong [8]
     rewrite   print the per-processor programs a scheme generates
     dataflow  print a sirup's dataflow graph and Theorem-3 choice
     network   derive the minimal network graph (Section 5)
     check     static diagnostics, incl. Theorem 2/3 scheme verification
     gen       emit a generated workload as Datalog facts *)

open Datalog
open Pardatalog
open Cmdliner

(* ---------------------------------------------------------------- *)
(* Shared loading helpers                                            *)
(* ---------------------------------------------------------------- *)

(* Stream the file so that pipes and process substitutions work too. *)
let read_file path =
  let ic = open_in_bin path in
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 65536 in
  let rec go () =
    let n = input ic chunk 0 (Bytes.length chunk) in
    if n > 0 then begin
      Buffer.add_subbytes buf chunk 0 n;
      go ()
    end
  in
  go ();
  close_in ic;
  Buffer.contents buf

let load_program path =
  match Parser.program (read_file path) with
  | Ok p -> p
  | Error e ->
    Format.eprintf "%s: %a@." path Parser.pp_error e;
    exit 2

let load_edb = function
  | None -> Database.create ()
  | Some path ->
    (match Parser.tuples (read_file path) with
     | Ok facts ->
       let db = Database.create () in
       List.iter (fun (pred, t) -> ignore (Database.add_fact db pred t)) facts;
       db
     | Error e ->
       Format.eprintf "%s: %a@." path Parser.pp_error e;
       exit 2)

let print_answers db preds =
  List.iter
    (fun pred ->
      match Database.find db pred with
      | Some rel ->
        Format.printf "%s/%d (%d tuples):@." pred (Relation.arity rel)
          (Relation.cardinal rel);
        List.iter
          (fun t -> Format.printf "  %s%a@." pred Tuple.pp t)
          (Relation.sorted_elements rel)
      | None -> Format.printf "%s: (empty)@." pred)
    preds

(* ---------------------------------------------------------------- *)
(* Common options                                                    *)
(* ---------------------------------------------------------------- *)

let program_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"PROGRAM" ~doc:"Datalog program file.")

let edb_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "edb" ] ~docv:"FILE"
        ~doc:"Extensional database: a file of ground facts.")

let quiet_arg =
  Arg.(
    value & flag
    & info [ "q"; "quiet" ] ~doc:"Do not print the answer tuples.")

let nprocs_arg =
  Arg.(
    value & opt int 4
    & info [ "n"; "nprocs" ] ~docv:"N" ~doc:"Number of processors.")

let seed_arg =
  Arg.(
    value & opt int 0
    & info [ "seed" ] ~docv:"SEED" ~doc:"Seed of the hash-function family.")

(* ---------------------------------------------------------------- *)
(* run                                                               *)
(* ---------------------------------------------------------------- *)

let run_cmd =
  let doc = "Evaluate a program sequentially (semi-naive by default)." in
  let engine_arg =
    Arg.(
      value
      & opt
          (enum
             [ ("seminaive", `Seminaive); ("naive", `Naive);
               ("stratified", `Stratified) ])
          `Seminaive
      & info [ "engine" ] ~docv:"ENGINE"
          ~doc:"$(b,seminaive) (default), $(b,naive) or $(b,stratified) \
                (SCC-by-SCC).")
  in
  let action program edb_file engine quiet =
    let program = load_program program in
    let edb = load_edb edb_file in
    (match Program.check program with
     | Ok () -> ()
     | Error msg ->
       Format.eprintf "invalid program: %s@." msg;
       exit 2);
    let derived = Program.derived_predicates program in
    match engine with
    | `Naive ->
      let db = Naive.evaluate program edb in
      if not quiet then print_answers db derived
    | `Seminaive ->
      let db, stats = Seminaive.evaluate program edb in
      if not quiet then print_answers db derived;
      Format.printf "%a@." Seminaive.pp_stats stats
    | `Stratified ->
      let db, stats = Stratified.evaluate program edb in
      if not quiet then print_answers db derived;
      Format.printf "%a@." Seminaive.pp_stats stats
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(const action $ program_arg $ edb_arg $ engine_arg $ quiet_arg)

(* ---------------------------------------------------------------- *)
(* query                                                             *)
(* ---------------------------------------------------------------- *)

let query_cmd =
  let doc = "Evaluate a program and print the tuples matching a pattern." in
  let pattern_arg =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"PATTERN"
          ~doc:"A query atom, e.g. 'anc(1,X)': variables match anything, \
                repeated variables must match equal constants.")
  in
  let action program edb_file pattern =
    let program = load_program program in
    let edb = load_edb edb_file in
    let pattern =
      match Parser.atom pattern with
      | Ok a -> a
      | Error e ->
        Format.eprintf "bad pattern: %a@." Parser.pp_error e;
        exit 2
    in
    let db, _ = Seminaive.evaluate program edb in
    match Database.find db pattern.Atom.pred with
    | None ->
      Format.eprintf "unknown predicate %s@." pattern.Atom.pred;
      exit 2
    | Some rel ->
      if Relation.arity rel <> Atom.arity pattern then begin
        Format.eprintf "%s has arity %d@." pattern.Atom.pred
          (Relation.arity rel);
        exit 2
      end;
      let matches tuple =
        let binding = Hashtbl.create 4 in
        let ok = ref true in
        Array.iteri
          (fun i term ->
            match term with
            | Datalog.Term.Const c ->
              if not (Const.equal c (Tuple.get tuple i)) then ok := false
            | Datalog.Term.Var v ->
              (match Hashtbl.find_opt binding v with
               | Some c ->
                 if not (Const.equal c (Tuple.get tuple i)) then ok := false
               | None -> Hashtbl.add binding v (Tuple.get tuple i)))
          pattern.Atom.args;
        !ok
      in
      let count = ref 0 in
      List.iter
        (fun t ->
          if matches t then begin
            incr count;
            Format.printf "%s%a@." pattern.Atom.pred Tuple.pp t
          end)
        (Relation.sorted_elements rel);
      Format.printf "%d tuple(s)@." !count
  in
  Cmd.v (Cmd.info "query" ~doc)
    Term.(const action $ program_arg $ edb_arg $ pattern_arg)

(* ---------------------------------------------------------------- *)
(* Scheme selection (shared by par and rewrite)                      *)
(* ---------------------------------------------------------------- *)

let scheme_conv =
  Arg.enum
    [
      ("q", `Q); ("nocomm", `Nocomm); ("example2", `Example2);
      ("example3", `Example3); ("wolfson", `Wolfson);
      ("tradeoff", `Tradeoff); ("general", `General);
    ]

let scheme_arg =
  Arg.(
    value & opt scheme_conv `General
    & info [ "scheme" ] ~docv:"SCHEME"
        ~doc:
          "Parallelization scheme: $(b,q) (Section 3 with --ve/--vr), \
           $(b,nocomm) (Theorem 3), $(b,example2), $(b,example3), \
           $(b,wolfson), $(b,tradeoff) (with --alpha), or $(b,general) \
           (Section 7; default).")

let vars_conv = Arg.list Arg.string

let ve_arg =
  Arg.(
    value & opt vars_conv []
    & info [ "ve" ] ~docv:"VARS"
        ~doc:"Discriminating sequence of the exit rule (scheme q).")

let vr_arg =
  Arg.(
    value & opt vars_conv []
    & info [ "vr" ] ~docv:"VARS"
        ~doc:"Discriminating sequence of the recursive rule (scheme q).")

let alpha_arg =
  Arg.(
    value & opt float 0.5
    & info [ "alpha" ] ~docv:"A"
        ~doc:"Locality of the tradeoff scheme: probability of keeping a \
              tuple at its producer (0 = non-redundant, 1 = Wolfson).")

let check_alpha alpha =
  if not (alpha >= 0.0 && alpha <= 1.0) then begin
    Format.eprintf "--alpha must be in [0,1], got %g@." alpha;
    exit 2
  end

let build_scheme scheme ~nprocs ~seed ~ve ~vr ~alpha program edb =
  match scheme with
  | `Q ->
    if ve = [] || vr = [] then
      Error "scheme q requires --ve and --vr"
    else Strategy.hash_q ~seed ~nprocs ~ve ~vr program
  | `Nocomm -> Strategy.no_communication ~seed ~nprocs program
  | `Example2 ->
    let partition =
      let rng = Workload.Rng.create ~seed in
      match Strategy.tc_shape program with
      | Error e -> (fun _ -> ignore e; 0)
      | Ok s ->
        let base_pred =
          (List.hd s.Analysis.base_atoms).Atom.pred
        in
        Workload.Edb.partition_random rng ~nprocs edb ~pred:base_pred
    in
    Strategy.example2 ~nprocs ~partition program
  | `Example3 -> Strategy.example3 ~seed ~nprocs program
  | `Wolfson -> Strategy.wolfson_redundant ~seed ~nprocs program
  | `Tradeoff -> Strategy.tradeoff ~seed ~nprocs ~alpha program
  | `General -> Strategy.general ~seed ~nprocs program

(* ---------------------------------------------------------------- *)
(* par                                                               *)
(* ---------------------------------------------------------------- *)

let par_cmd =
  let doc = "Evaluate a program in parallel and report statistics." in
  let verbose_arg =
    Arg.(
      value & flag
      & info [ "v"; "verbose" ]
          ~doc:"Log each simulated round to stderr.")
  in
  let runtimes = [ ("sim", `Sim); ("domain", `Domain); ("net", `Net) ] in
  let runtime_arg =
    Arg.(
      value
      & opt (enum runtimes) `Sim
      & info [ "runtime" ] ~docv:"RT"
          ~doc:
            "$(b,sim) = deterministic simulated rounds (default); \
             $(b,domain) = OCaml domains; $(b,net) = one worker OS \
             process per --procs slot, coordinated over sockets.")
  in
  let procs_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "procs" ] ~docv:"P"
          ~doc:
            "With --runtime net: number of worker processes (clamped \
             to the processor count; default 4).")
  in
  let net_transport_arg =
    Arg.(
      value
      & opt (some (enum [ ("unix", `Unix); ("tcp", `Tcp) ])) None
      & info [ "net-transport" ] ~docv:"T"
          ~doc:
            "With --runtime net: $(b,unix) sockets (default) or \
             loopback $(b,tcp).")
  in
  let net_partition_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "net-partition" ] ~docv:"PR"
          ~doc:
            "With --runtime net: probability in [0,1) that a channel's \
             current frame window is cut by the fault shim (default 0).")
  in
  let net_hb_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "net-hb-ms" ] ~docv:"MS"
          ~doc:
            "With --runtime net: heartbeat period in milliseconds \
             (default 25).")
  in
  let domains_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ] ~docv:"D"
          ~doc:
            "With --runtime domain: serve the N processors with D \
             domains (default: one per processor).")
  in
  let verify_arg =
    Arg.(
      value & flag
      & info [ "verify" ]
          ~doc:"Also run sequentially and check Theorems 1/2-style \
                properties.")
  in
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome trace-event JSON file covering every \
             (processor, round, phase) of the run; open it in Perfetto \
             or chrome://tracing.")
  in
  let metrics_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Write a versioned JSON metrics snapshot (counters, gauges, \
             histograms) of the run.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Print the run statistics as versioned JSON (schema 5) \
             instead of the table.")
  in
  let plan_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "plan" ] ~docv:"FILE"
          ~doc:
            "Run under a plan certificate (from $(b,check --suggest \
             --json)). The certificate is re-verified against the \
             program: a stale or invalid one is rejected with exit \
             code 5 (E201-E203). Overrides --scheme and -n.")
  in
  let auto_arg =
    Arg.(
      value & flag
      & info [ "auto-scheme" ]
          ~doc:
            "Synthesize the scheme with the static planner (profiling \
             the --edb facts) instead of taking --scheme.")
  in
  let fault_term =
    let fault_seed_arg =
      Arg.(
        value & opt int 0
        & info [ "fault-seed" ] ~docv:"SEED"
            ~doc:"Seed of the deterministic fault plan.")
    in
    let drop_arg =
      Arg.(
        value & opt float 0.0
        & info [ "drop" ] ~docv:"P"
            ~doc:"Per-transmission message drop probability, in [0,1).")
    in
    let dup_arg =
      Arg.(
        value & opt float 0.0
        & info [ "dup" ] ~docv:"P"
            ~doc:"Per-transmission message duplication probability.")
    in
    let reorder_arg =
      Arg.(
        value & opt float 0.0
        & info [ "reorder" ] ~docv:"P"
            ~doc:"Per-message reordering probability.")
    in
    let delay_arg =
      Arg.(
        value & opt float 0.0
        & info [ "delay" ] ~docv:"P"
            ~doc:"Per-message added-latency probability (see --max-delay).")
    in
    let max_delay_arg =
      Arg.(
        value & opt int 1
        & info [ "max-delay" ] ~docv:"R"
            ~doc:"Largest added latency, in rounds.")
    in
    let crash_arg =
      Arg.(
        value & opt string ""
        & info [ "crash" ] ~docv:"SPEC"
            ~doc:
              "Crash schedule: comma-separated $(b,PID@ROUND[+DOWN]) \
               entries, e.g. $(b,1@3+2) crashes processor 1 at round 3 \
               for 2 rounds. A crash that would leave no live processor \
               is skipped.")
    in
    let checkpoint_arg =
      Arg.(
        value
        & opt (some int) None
        & info [ "checkpoint" ] ~docv:"K"
            ~doc:
              "Checkpoint every K rounds, so crash recovery resumes from \
               the snapshot instead of re-deriving from the base \
               fragment. Runtimes sim and net only.")
    in
    let build fault_seed drop dup reorder delay max_delay crash checkpoint =
      let crashes =
        match Fault.parse_crashes crash with
        | Ok cs -> cs
        | Error msg ->
          Format.eprintf "bad --crash: %s@." msg;
          exit 2
      in
      try
        Fault.make ~seed:fault_seed ~drop ~dup ~reorder ~delay ~max_delay
          ~crashes ?checkpoint_every:checkpoint ()
      with Invalid_argument msg ->
        Format.eprintf "%s@." msg;
        exit 2
    in
    Term.(
      const build $ fault_seed_arg $ drop_arg $ dup_arg $ reorder_arg
      $ delay_arg $ max_delay_arg $ crash_arg $ checkpoint_arg)
  in
  let overload_term =
    let capacity_arg =
      Arg.(
        value
        & opt (some int) None
        & info [ "capacity" ] ~docv:"K"
            ~doc:
              "Credit-based backpressure: at most K tuples in flight per \
               channel; over-budget tuples wait at the sender.")
    in
    let deadline_arg =
      Arg.(
        value
        & opt (some float) None
        & info [ "deadline" ] ~docv:"SEC"
            ~doc:
              "Wall-clock budget in seconds; on expiry the run aborts \
               with partial statistics.")
    in
    let max_store_arg =
      Arg.(
        value
        & opt (some int) None
        & info [ "max-store" ] ~docv:"ROWS"
            ~doc:"Per-processor tuple-store row budget.")
    in
    let max_outbox_arg =
      Arg.(
        value
        & opt (some int) None
        & info [ "max-outbox" ] ~docv:"ROWS"
            ~doc:"Per-processor outbox row budget.")
    in
    let max_rounds_arg =
      Arg.(
        value
        & opt (some int) None
        & info [ "max-rounds" ] ~docv:"N"
            ~doc:
              "Round budget of --runtime sim; on exhaustion the run \
               aborts with partial statistics.")
    in
    let adaptive_arg =
      Arg.(
        value & flag
        & info [ "adaptive" ]
            ~doc:
              "Adaptive degradation: run the tradeoff scheme with a \
               per-processor alpha moved by backlog feedback \
               (--high-water), resting at --alpha. Overrides --scheme.")
    in
    let high_water_arg =
      Arg.(
        value & opt int 64
        & info [ "high-water" ] ~docv:"N"
            ~doc:
              "Backlog (per-channel tuples outstanding) past which an \
               --adaptive processor raises its alpha.")
    in
    let build capacity deadline max_store max_outbox max_rounds adaptive
        high_water =
      (match capacity with
      | Some k when k < 1 ->
        Format.eprintf "--capacity must be at least 1, got %d@." k;
        exit 2
      | _ -> ());
      (match max_rounds with
      | Some n when n < 1 ->
        Format.eprintf "--max-rounds must be at least 1, got %d@." n;
        exit 2
      | _ -> ());
      let limits =
        {
          Overload.deadline;
          max_store_rows = max_store;
          max_outbox_rows = max_outbox;
        }
      in
      (try Overload.validate limits
       with Invalid_argument msg ->
         Format.eprintf "%s@." msg;
         exit 2);
      if high_water < 1 then begin
        Format.eprintf "--high-water must be at least 1, got %d@." high_water;
        exit 2
      end;
      (capacity, limits, max_rounds, adaptive, high_water)
    in
    Term.(
      const build $ capacity_arg $ deadline_arg $ max_store_arg
      $ max_outbox_arg $ max_rounds_arg $ adaptive_arg $ high_water_arg)
  in
  let action program edb_file scheme nprocs seed ve vr alpha plan_file auto
      runtime procs net_transport net_partition net_hb domains verify fault
      overload trace_file metrics_file json quiet verbose =
    if verbose then begin
      Logs.set_reporter (Logs.format_reporter ());
      Logs.Src.set_level Sim_runtime.log_src (Some Logs.Debug)
    end;
    check_alpha alpha;
    let capacity, limits, max_rounds, adaptive, high_water = overload in
    if runtime = `Net && adaptive then begin
      Format.eprintf
        "--adaptive is coordinator-stateful; not supported with --runtime \
         net@.";
      exit 2
    end;
    (* A flag of one runtime would do nothing under another: refuse it
       rather than run the default and exit 0. *)
    let runtime_name rt = fst (List.find (fun (_, r) -> r = rt) runtimes) in
    List.iter
      (fun (flag, owner, given) ->
        if given && runtime <> owner then begin
          Format.eprintf "%s is not supported with --runtime %s (it applies to \
                          --runtime %s only)@."
            flag (runtime_name runtime) (runtime_name owner);
          exit 2
        end)
      [
        ("--domains", `Domain, domains <> None);
        ("--procs", `Net, procs <> None);
        ("--net-partition", `Net, net_partition <> None);
        ("--net-transport", `Net, net_transport <> None);
        ("--net-hb-ms", `Net, net_hb <> None);
        ("--max-rounds", `Sim, max_rounds <> None);
      ];
    (* Domain crash recovery rebuilds from the base fragment and keeps
       no snapshots, so a checkpoint interval there would do nothing. *)
    if runtime = `Domain && fault.Fault.checkpoint_every <> None then begin
      Format.eprintf
        "--checkpoint is not supported with --runtime domain (crash \
         recovery there rebuilds from the base fragment)@.";
      exit 2
    end;
    (* The net runtime re-parses the program in every worker, so it
       needs the source text, not just the parsed value. *)
    let program_path = program in
    let program_text = read_file program_path in
    let program =
      match Parser.program program_text with
      | Ok p -> p
      | Error e ->
        Format.eprintf "%s: %a@." program_path Parser.pp_error e;
        exit 2
    in
    let edb = load_edb edb_file in
    let plan_reject (r : Plan.reject) =
      Format.eprintf "%a@." Plan.pp_reject r;
      exit 5
    in
    if (plan_file <> None || auto) && adaptive then begin
      Format.eprintf
        "--adaptive picks its own scheme; drop --plan/--auto-scheme@.";
      exit 2
    end;
    let plan =
      match (plan_file, auto) with
      | Some _, true ->
        Format.eprintf "--plan and --auto-scheme are mutually exclusive@.";
        exit 2
      | Some path, false -> (
        match Plan.of_json (read_file path) with
        | Error r -> plan_reject r
        | Ok plan -> (
          match Plan.verify plan program with
          | Error r -> plan_reject r
          | Ok () -> Some plan))
      | None, true -> (
        let profile = Check.Costmodel.profile_of_db edb in
        let outcome =
          Check.Planner.suggest ~profile ~nprocs ~seed program
        in
        match outcome.Check.Planner.plan with
        | None ->
          Format.eprintf
            "no scheme verifies for this program; run check for details@.";
          exit 2
        | Some plan -> Some plan)
      | None, false -> None
    in
    (* A certificate fixes the processor count it was issued for. *)
    let nprocs =
      match plan with Some p -> p.Plan.nprocs | None -> nprocs
    in
    if runtime = `Net && plan = None && scheme = `Example2 then begin
      Format.eprintf
        "scheme example2 partitions the EDB with coordinator-local state; \
         not supported with --runtime net@.";
      exit 2
    end;
    let dial =
      if adaptive then
        Some (Overload.dial ~alpha ~high_water ~nprocs ())
      else None
    in
    let scheme_result =
      match (plan, dial) with
      | Some p, _ -> (
        match Plan.to_rewrite p program with
        | Ok rw -> Ok rw
        | Error r -> plan_reject r)
      | None, Some dial ->
        Strategy.adaptive_tradeoff ~seed ~nprocs ~dial program
      | None, None ->
        build_scheme scheme ~nprocs ~seed ~ve ~vr ~alpha program edb
    in
    match scheme_result with
    | Error msg ->
      Format.eprintf "cannot build scheme: %s@." msg;
      exit 2
    | Ok rw ->
      let trace =
        if trace_file = None then Obs.Trace.none else Obs.Trace.create ()
      in
      let metrics =
        if metrics_file = None then Obs.Metrics.none
        else Obs.Metrics.create ()
      in
      let config =
        Run_config.(
          default |> with_fault fault |> with_capacity capacity
          |> with_limits limits |> with_dial dial |> with_domains domains
          |> with_trace trace |> with_metrics metrics
          |> with_max_rounds
               (Option.value max_rounds ~default:default.max_rounds)
          |> with_plan plan)
      in
      (* The sinks are flushed on every outcome — an aborted run's trace
         is exactly the one worth looking at. *)
      let write_sinks () =
        Option.iter (Obs.Trace.write trace) trace_file;
        Option.iter (Obs.Metrics.write metrics) metrics_file
      in
      (* Schema-2 attribution: which scheme actually ran, and how the
         run ended — so a partial-result JSON explains itself. *)
      let scheme_name =
        match (plan, dial) with
        | Some p, _ -> Plan.scheme_name p.Plan.scheme
        | None, Some _ -> "adaptive"
        | None, None -> (
          match scheme with
          | `Q -> "q"
          | `Nocomm -> "nocomm"
          | `Example2 -> "example2"
          | `Example3 -> "example3"
          | `Wolfson -> "wolfson"
          | `Tradeoff -> "tradeoff"
          | `General -> "general")
      in
      let print_stats ?(outcome = "ok") stats =
        if json then
          print_endline (Stats.to_json ~scheme:scheme_name ~outcome stats)
        else Format.printf "%a@." Stats.pp stats
      in
      (* The runtimes refuse invalid input (e.g. a program fact on a
         derived predicate) with Invalid_argument: a usage error. *)
      let invalid msg =
        Format.eprintf "%s@." msg;
        exit 2
      in
      if verify then begin
        let report =
          try Verify.check ~config rw ~edb with Invalid_argument msg -> invalid msg
        in
        write_sinks ();
        Format.printf "%a@." Verify.pp_report report;
        if not report.Verify.equal_answers then exit 1
      end
      else begin
        match
          (match runtime with
          | `Sim -> Sim_runtime.run ~config rw ~edb
          | `Domain -> Domain_runtime.run ~config rw ~edb
          | `Net ->
            let spec =
              match (plan, dial) with
              | Some p, _ -> Net.Wire.Spec_plan (Plan.to_json p)
              | None, Some _ -> assert false (* rejected above *)
              | None, None -> (
                match scheme with
                | `Q -> Net.Wire.Spec_q { ve; vr }
                | `Nocomm -> Net.Wire.Spec_nocomm
                | `Example2 -> assert false (* rejected above *)
                | `Example3 -> Net.Wire.Spec_example3
                | `Wolfson -> Net.Wire.Spec_wolfson
                | `Tradeoff -> Net.Wire.Spec_tradeoff alpha
                | `General -> Net.Wire.Spec_general)
            in
            Net.Net_runtime.run ~config ~program:program_text ~spec ~seed
              ~procs:(Option.value procs ~default:4)
              ~transport:(Option.value net_transport ~default:`Unix)
              ~partition:(Option.value net_partition ~default:0.0)
              ~hb_ms:(Option.value net_hb ~default:25)
              ~spawn:(Net.Net_runtime.Exec Sys.executable_name) rw ~edb)
        with
        | result ->
          write_sinks ();
          if not quiet then
            print_answers result.Sim_runtime.answers rw.Rewrite.derived;
          print_stats result.Sim_runtime.stats
        | exception Overload.Overload { reason; stats } ->
          write_sinks ();
          let rounds =
            match reason with Overload.Round_budget _ -> true | _ -> false
          in
          Format.printf
            (if rounds then "%a@." else "overload: %a@.")
            Overload.pp_reason reason;
          print_stats ~outcome:(Overload.reason_kind reason) stats;
          exit (if rounds then 3 else 4)
        | exception Plan.Rejected r ->
          write_sinks ();
          plan_reject r
        | exception Invalid_argument msg -> invalid msg
      end
  in
  Cmd.v (Cmd.info "par" ~doc)
    Term.(
      const action $ program_arg $ edb_arg $ scheme_arg $ nprocs_arg
      $ seed_arg $ ve_arg $ vr_arg $ alpha_arg $ plan_arg $ auto_arg
      $ runtime_arg $ procs_arg $ net_transport_arg $ net_partition_arg
      $ net_hb_arg $ domains_arg $ verify_arg $ fault_term
      $ overload_term $ trace_arg $ metrics_arg $ json_arg $ quiet_arg
      $ verbose_arg)

(* ---------------------------------------------------------------- *)
(* worker (internal, spawned by the net runtime's coordinator)        *)
(* ---------------------------------------------------------------- *)

let worker_cmd =
  let doc =
    "Internal: a net-runtime worker process (spawned by $(b,par \
     --runtime net); not for interactive use)."
  in
  let addr_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "addr" ] ~docv:"ADDR"
          ~doc:"Coordinator address: $(b,unix:PATH) or $(b,tcp:PORT).")
  in
  let worker_arg =
    Arg.(
      required
      & opt (some int) None
      & info [ "worker" ] ~docv:"W" ~doc:"Worker slot index.")
  in
  let inc_arg =
    Arg.(
      value & opt int 0
      & info [ "inc" ] ~docv:"I" ~doc:"Incarnation number.")
  in
  let action addr worker inc =
    exit (Net.Net_runtime.worker_main ~addr ~worker ~inc)
  in
  Cmd.v (Cmd.info "worker" ~doc)
    Term.(const action $ addr_arg $ worker_arg $ inc_arg)

(* ---------------------------------------------------------------- *)
(* rewrite                                                           *)
(* ---------------------------------------------------------------- *)

let rewrite_cmd =
  let doc = "Print the per-processor programs a scheme generates." in
  let action program edb_file scheme nprocs seed ve vr alpha =
    check_alpha alpha;
    let program = load_program program in
    let edb = load_edb edb_file in
    match build_scheme scheme ~nprocs ~seed ~ve ~vr ~alpha program edb with
    | Error msg ->
      Format.eprintf "cannot build scheme: %s@." msg;
      exit 2
    | Ok rw -> Format.printf "%a@." Rewrite.pp rw
  in
  Cmd.v (Cmd.info "rewrite" ~doc)
    Term.(
      const action $ program_arg $ edb_arg $ scheme_arg $ nprocs_arg
      $ seed_arg $ ve_arg $ vr_arg $ alpha_arg)

(* ---------------------------------------------------------------- *)
(* dataflow                                                          *)
(* ---------------------------------------------------------------- *)

let dataflow_cmd =
  let doc = "Print a linear sirup's dataflow graph (Definition 2)." in
  let action program =
    let program = load_program program in
    match Analysis.as_sirup program with
    | Error e ->
      Format.eprintf "not a linear sirup: %s@." (Analysis.explain_not_sirup e);
      exit 2
    | Ok s ->
      let g = Dataflow.of_sirup s in
      Format.printf "dataflow graph: %a@." Dataflow.pp g;
      (match Dataflow.find_cycle g with
       | Some c ->
         Format.printf "cycle: %s@."
           (String.concat " -> " (List.map string_of_int c))
       | None -> Format.printf "cycle: none@.");
      (match Dataflow.communication_free_choice s with
       | Some fc ->
         Format.printf
           "Theorem 3 choice: v(e) = <%s>, v(r) = <%s> with a symmetric \
            hash gives a communication-free execution@."
           (String.concat ", " fc.Dataflow.ve)
           (String.concat ", " fc.Dataflow.vr)
       | None ->
         Format.printf
           "no communication-free choice (dataflow graph is acyclic)@.")
  in
  Cmd.v (Cmd.info "dataflow" ~doc) Term.(const action $ program_arg)

(* ---------------------------------------------------------------- *)
(* network                                                           *)
(* ---------------------------------------------------------------- *)

let network_cmd =
  let doc =
    "Derive the minimal network graph for a linear sirup (Section 5)."
  in
  let spec_arg =
    Arg.(
      value
      & opt (some (list int)) None
      & info [ "linear" ] ~docv:"COEFFS"
          ~doc:
            "Use the linear form with these coefficients (e.g. 1,-1,1 for \
             Example 7). Without this flag the bit-vector form of Example \
             6 is used.")
  in
  let dot_arg =
    Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz output.")
  in
  let action program ve vr linear dot =
    let program = load_program program in
    match Analysis.as_sirup program with
    | Error e ->
      Format.eprintf "not a linear sirup: %s@." (Analysis.explain_not_sirup e);
      exit 2
    | Ok s ->
      if ve = [] || vr = [] then begin
        Format.eprintf "network requires --ve and --vr@.";
        exit 2
      end;
      let spec =
        match linear with
        | Some coeffs ->
          let arr = Array.of_list coeffs in
          let lo = Array.fold_left (fun acc c -> acc + min 0 c) 0 arr in
          Hash_fn.Linear { coeffs = arr; lo }
        | None -> Hash_fn.Bitvec
      in
      (match Derive.minimal_network { sirup = s; ve; vr; spec } with
       | Error e ->
         Format.eprintf "derivation failed: %s@." e;
         exit 2
       | Ok net ->
         if dot then print_string (Netgraph.to_dot net)
         else begin
           Format.printf "minimal network (%d edges):@." (Netgraph.edge_count net);
           Format.printf "  @[%a@]@." Netgraph.pp net;
           let cross = Netgraph.without_self net in
           Format.printf "cross-processor edges: %d@."
             (Netgraph.edge_count cross)
         end)
  in
  Cmd.v (Cmd.info "network" ~doc)
    Term.(const action $ program_arg $ ve_arg $ vr_arg $ spec_arg $ dot_arg)

(* ---------------------------------------------------------------- *)
(* check                                                             *)
(* ---------------------------------------------------------------- *)

let check_cmd =
  let doc =
    "Statically check a program: safety, arities, stratification, \
     reachability, sirup shape, and (with --ve/--vr) the Theorem 2/3 \
     scheme conditions and the Section 5 network prediction. With \
     --suggest, synthesize the cheapest verified scheme and (with \
     --json) emit it as a plan certificate for $(b,par --plan)."
  in
  let program_arg =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"PROGRAM" ~doc:"Datalog program file.")
  in
  let linear_arg =
    Arg.(
      value
      & opt (some (list int)) None
      & info [ "linear" ] ~docv:"COEFFS"
          ~doc:
            "Predict the network for the linear discriminating form with \
             these coefficients (Example 7).")
  in
  let bitvec_arg =
    Arg.(
      value & flag
      & info [ "bitvec" ]
          ~doc:"Predict the network for the bit-vector form (Example 6).")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the findings as a JSON array.")
  in
  let strict_arg =
    Arg.(
      value & flag
      & info [ "strict" ] ~doc:"Exit non-zero on warnings too (for CI).")
  in
  let codes_arg =
    Arg.(
      value & flag
      & info [ "codes" ] ~doc:"List every diagnostic code and exit.")
  in
  let goal_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "goal" ] ~docv:"PRED"
          ~doc:
            "The output predicate; reachability (W004) is checked \
             backwards from it.")
  in
  let suggest_arg =
    Arg.(
      value & flag
      & info [ "suggest" ]
          ~doc:
            "Synthesize a scheme: enumerate the candidate schemes, \
             reject the ones failing Theorem 2/3 re-verification, rank \
             the survivors by predicted cost (I110-I112, W110), and \
             with --json print the winning plan certificate.")
  in
  let check_edb_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "edb" ] ~docv:"FILE"
          ~doc:
            "Ground facts to profile (cardinalities, per-column skew); \
             sharpens the --suggest cost model.")
  in
  let action program goal ve vr linear bitvec json strict codes suggest
      edb_file nprocs seed =
    if codes then begin
      List.iter
        (fun (c, d) -> Printf.printf "%s  %s\n" c d)
        Check.Diagnostic.registry;
      exit 0
    end;
    let path =
      match program with
      | Some p -> p
      | None ->
        Format.eprintf "check requires a PROGRAM (or --codes)@.";
        exit 2
    in
    let p = load_program path in
    let diags = Check.Engine.check_program ~file:path ?goal p in
    let diags =
      if ve = [] && vr = [] then diags
      else begin
        let spec =
          match linear with
          | Some coeffs ->
            let arr = Array.of_list coeffs in
            let lo = Array.fold_left (fun acc c -> acc + min 0 c) 0 arr in
            Hash_fn.Linear { coeffs = arr; lo }
          | None -> if bitvec then Hash_fn.Bitvec else Hash_fn.Opaque
        in
        let report = Check.Scheme.check_scheme ~file:path ~spec ~ve ~vr p in
        diags @ report.Check.Scheme.diagnostics
      end
    in
    let diags, plan =
      if not suggest then (diags, None)
      else begin
        let profile =
          Option.map
            (fun _ -> Check.Costmodel.profile_of_db (load_edb edb_file))
            edb_file
        in
        let outcome =
          Check.Planner.suggest ~file:path ?profile ~nprocs ~seed p
        in
        (diags @ outcome.Check.Planner.diagnostics, outcome.Check.Planner.plan)
      end
    in
    (* With --suggest --json, stdout carries the certificate itself, so
       `check --suggest --json > plan.json` feeds `par --plan` directly;
       the diagnostics JSON is printed only when no plan was found. *)
    (match (json, plan) with
    | true, Some plan when suggest -> print_string (Plan.to_json plan)
    | true, _ -> print_string (Check.Diagnostic.list_to_json diags ^ "\n")
    | false, _ ->
      if diags <> [] then Format.printf "%a" Check.Diagnostic.pp_list diags;
      Format.printf "%a@." Check.Diagnostic.pp_summary diags);
    if suggest && plan = None then exit 1
    else exit (Check.Diagnostic.exit_code ~strict diags)
  in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(
      const action $ program_arg $ goal_arg $ ve_arg $ vr_arg $ linear_arg
      $ bitvec_arg $ json_arg $ strict_arg $ codes_arg $ suggest_arg
      $ check_edb_arg $ nprocs_arg $ seed_arg)

(* ---------------------------------------------------------------- *)
(* dong                                                              *)
(* ---------------------------------------------------------------- *)

let dong_cmd =
  let doc =
    "Evaluate under Dong's decomposition baseline (constant-disjoint \
     components, no communication)."
  in
  let action program edb_file nprocs quiet =
    let program = load_program program in
    let edb = load_edb edb_file in
    match Decompose.run program ~nprocs edb with
    | Error msg ->
      Format.eprintf "not applicable: %s@." msg;
      exit 2
    | Ok (result, analysis) ->
      if not quiet then
        print_answers result.Sim_runtime.answers
          (Program.derived_predicates program);
      Format.printf "components: %d;  tuples per processor: %s@."
        analysis.Decompose.component_count
        (String.concat ", "
           (Array.to_list
              (Array.map string_of_int analysis.Decompose.tuples_per_proc)));
      Format.printf "%a@." Stats.pp result.Sim_runtime.stats
  in
  Cmd.v (Cmd.info "dong" ~doc)
    Term.(const action $ program_arg $ edb_arg $ nprocs_arg $ quiet_arg)

(* ---------------------------------------------------------------- *)
(* gen                                                               *)
(* ---------------------------------------------------------------- *)

let gen_cmd =
  let doc = "Generate a workload and print it as Datalog facts." in
  let family_arg =
    Arg.(
      required
      & pos 0
          (some
             (enum
                [ ("chain", `Chain); ("cycle", `Cycle); ("tree", `Tree);
                  ("random", `Random); ("grid", `Grid) ]))
          None
      & info [] ~docv:"FAMILY" ~doc:"chain, cycle, tree, random or grid.")
  in
  let size_arg =
    Arg.(
      value & opt int 100
      & info [ "size" ] ~docv:"N"
          ~doc:"Nodes (chain/cycle/random), depth (tree) or side (grid).")
  in
  let edges_arg =
    Arg.(
      value & opt int 200
      & info [ "edges" ] ~docv:"M" ~doc:"Edge count for random graphs.")
  in
  let pred_arg =
    Arg.(
      value & opt string "par"
      & info [ "pred" ] ~docv:"NAME" ~doc:"Predicate name of the facts.")
  in
  let action family size edges pred seed =
    let rng = Workload.Rng.create ~seed in
    let es =
      match family with
      | `Chain -> Workload.Graphgen.chain size
      | `Cycle -> Workload.Graphgen.cycle size
      | `Tree -> Workload.Graphgen.binary_tree ~depth:size
      | `Random -> Workload.Graphgen.random_digraph rng ~nodes:size ~edges
      | `Grid -> Workload.Graphgen.grid ~rows:size ~cols:size
    in
    List.iter (fun (a, b) -> Printf.printf "%s(%d,%d).\n" pred a b) es
  in
  Cmd.v (Cmd.info "gen" ~doc)
    Term.(const action $ family_arg $ size_arg $ edges_arg $ pred_arg $ seed_arg)

(* ---------------------------------------------------------------- *)

let () =
  let doc = "parallel bottom-up Datalog evaluation (Ganguly-Silberschatz-Tsur)" in
  let info = Cmd.info "datalogp" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info
                    [ run_cmd; query_cmd; par_cmd; worker_cmd; dong_cmd;
                      rewrite_cmd; dataflow_cmd; network_cmd; check_cmd;
                      gen_cmd ]))
