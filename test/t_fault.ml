(* Fault-injection properties: reliable delivery and crash recovery.

   The tentpole guarantee under test: for every seeded fault plan that
   leaves at least one live processor, the pooled parallel answers
   equal the sequential evaluation — Theorem 1 under failures. The
   remaining properties pin the delivery layer down: an active plan
   with all probabilities zero reproduces the fault-free message
   counts exactly (so the paper's communication claims E1/E3 are not
   disturbed by the layer), fault runs are deterministic replays of
   the plan seed, the domain runtime survives the same plans, and
   checkpoints cut the crash-recovery cost. *)

open Datalog
open Pardatalog
open Helpers

(* ------------------------------------------------------------------ *)
(* Random fault plans                                                  *)
(* ------------------------------------------------------------------ *)

(* Plans are generated as small integers and scaled, so QCheck's
   shrinker stays useful and probabilities stay in [0, 1). The crash
   pid is a hint taken modulo the processor count at use site. *)
type plan_cfg = {
  pc_seed : int;
  pc_drop : int;  (* twentieths *)
  pc_dup : int;
  pc_reorder : int;
  pc_delay : int;
  pc_max_delay : int;
  pc_crash : (int * int * int) option;  (* pid hint, round, downtime *)
  pc_checkpoint : int option;
}

let plan_cfg_gen =
  QCheck.Gen.(
    let* pc_seed = int_range 0 9999 in
    let* pc_drop = int_range 0 8 in
    let* pc_dup = int_range 0 6 in
    let* pc_reorder = int_range 0 6 in
    let* pc_delay = int_range 0 6 in
    let* pc_max_delay = int_range 1 3 in
    let* pc_crash =
      oneof
        [
          return None;
          (let* pid = int_range 0 4 in
           let* round = int_range 0 3 in
           let* down = int_range 1 3 in
           return (Some (pid, round, down)));
        ]
    in
    let* pc_checkpoint =
      oneof [ return None; map (fun k -> Some k) (int_range 1 4) ]
    in
    return
      { pc_seed; pc_drop; pc_dup; pc_reorder; pc_delay; pc_max_delay;
        pc_crash; pc_checkpoint })

let plan_of cfg ~nprocs =
  Fault.make ~seed:cfg.pc_seed
    ~drop:(float_of_int cfg.pc_drop /. 20.0)
    ~dup:(float_of_int cfg.pc_dup /. 20.0)
    ~reorder:(float_of_int cfg.pc_reorder /. 20.0)
    ~delay:(float_of_int cfg.pc_delay /. 20.0)
    ~max_delay:cfg.pc_max_delay
    ~crashes:
      (match cfg.pc_crash with
       | None -> []
       | Some (pid, round, down) ->
         [ { Fault.cr_pid = pid mod nprocs; cr_round = round;
             cr_down = down } ])
    ?checkpoint_every:cfg.pc_checkpoint ()

let print_cfg cfg =
  Printf.sprintf
    "seed=%d drop=%d/20 dup=%d/20 reorder=%d/20 delay=%d/20(max %d) \
     crash=%s checkpoint=%s"
    cfg.pc_seed cfg.pc_drop cfg.pc_dup cfg.pc_reorder cfg.pc_delay
    cfg.pc_max_delay
    (match cfg.pc_crash with
     | None -> "-"
     | Some (p, r, d) -> Printf.sprintf "%d@%d+%d" p r d)
    (match cfg.pc_checkpoint with
     | None -> "-"
     | Some k -> string_of_int k)

let faulty_config_arb =
  QCheck.make
    ~print:(fun ((gs, n, seed, picks), cfg) ->
      Printf.sprintf "%s\nN=%d seed=%d picks=%s\n%s"
        gs.T_random_sirups.gs_source n seed
        (String.concat "," (List.map string_of_int picks))
        (print_cfg cfg))
    QCheck.Gen.(
      let* base = T_random_sirups.config_arb.QCheck.gen in
      let* cfg = plan_cfg_gen in
      return (base, cfg))

let sim_config plan =
  Run_config.(default |> with_fault plan |> with_max_rounds 50_000)

(* ------------------------------------------------------------------ *)
(* Theorem 1 under failures: random sirups x EDBs x fault plans, one   *)
(* generator instantiated per runtime through the Runtime.S harness.   *)
(* ------------------------------------------------------------------ *)

let prop_faulty_runtime (module R : Runtime.S) ~count ~max_n =
  let module H = Harness (R) in
  QCheck.Test.make ~count
    ~name:
      (Printf.sprintf
         "random faults: %s runtime = sequential (Theorem 1 under failures)"
         R.name)
    faulty_config_arb
    (fun ((gs, n, seed, picks), cfg) ->
      let n = min n max_n in
      match T_random_sirups.build gs n seed picks with
      | None -> QCheck.assume_fail ()
      | Some (program, rw) ->
        let edb = T_random_sirups.edb_for gs seed in
        let plan = plan_of cfg ~nprocs:n in
        H.agrees_with_sequential ~config:(sim_config plan) ~pred:"t" program
          rw ~edb)

let prop_faulty_equals_sequential =
  prop_faulty_runtime (module Runtime.Sim) ~count:150 ~max_n:max_int

(* Same, under the Section 7 general scheme (non-sirup rewrites). *)
let prop_faulty_general_scheme =
  QCheck.Test.make ~count:60
    ~name:"random faults under the Section 7 scheme" faulty_config_arb
    (fun ((gs, n, seed, _), cfg) ->
      let program = Parser.program_exn gs.T_random_sirups.gs_source in
      match Strategy.general ~seed ~nprocs:n program with
      | Error _ -> QCheck.assume_fail ()
      | Ok rw ->
        let edb = T_random_sirups.edb_for gs seed in
        let plan = plan_of cfg ~nprocs:n in
        let report = Verify.check ~config:(sim_config plan) rw ~edb in
        report.Verify.equal_answers)

(* ------------------------------------------------------------------ *)
(* The delivery layer does not disturb the communication claims: an
   active plan whose probabilities are all zero (it still routes every
   payload through sequence numbers, acks and the receiver filter)
   reproduces the fault-free channel counts exactly.                   *)
(* ------------------------------------------------------------------ *)

let prop_zero_fault_exact_counts =
  QCheck.Test.make ~count:60
    ~name:"zero-probability plan reproduces exact message counts"
    T_random_sirups.config_arb
    (fun (gs, n, seed, picks) ->
      match T_random_sirups.build gs n seed picks with
      | None -> QCheck.assume_fail ()
      | Some (_, rw) ->
        let edb = T_random_sirups.edb_for gs seed in
        let plain = Sim_runtime.run rw ~edb in
        let layered =
          Sim_runtime.run
            ~config:(sim_config (Fault.make ~checkpoint_every:3 ()))
            rw ~edb
        in
        let sent s =
          Array.map (fun p -> p.Stats.tuples_sent) s.Stats.per_proc
        in
        let received s =
          Array.map (fun p -> p.Stats.tuples_received) s.Stats.per_proc
        in
        Database.equal plain.Sim_runtime.answers layered.Sim_runtime.answers
        && plain.Sim_runtime.stats.Stats.channel_tuples
           = layered.Sim_runtime.stats.Stats.channel_tuples
        && sent plain.Sim_runtime.stats = sent layered.Sim_runtime.stats
        && received plain.Sim_runtime.stats
           = received layered.Sim_runtime.stats)

(* ------------------------------------------------------------------ *)
(* Fault runs are deterministic replays of the plan seed.              *)
(* ------------------------------------------------------------------ *)

let prop_fault_runs_deterministic =
  QCheck.Test.make ~count:60 ~name:"same plan, same run (determinism)"
    faulty_config_arb
    (fun ((gs, n, seed, picks), cfg) ->
      match T_random_sirups.build gs n seed picks with
      | None -> QCheck.assume_fail ()
      | Some (_, rw) ->
        let edb = T_random_sirups.edb_for gs seed in
        let plan = plan_of cfg ~nprocs:n in
        let a = Sim_runtime.run ~config:(sim_config plan) rw ~edb in
        let b = Sim_runtime.run ~config:(sim_config plan) rw ~edb in
        Database.equal a.Sim_runtime.answers b.Sim_runtime.answers
        && a.Sim_runtime.stats.Stats.rounds = b.Sim_runtime.stats.Stats.rounds
        && a.Sim_runtime.stats.Stats.channel_tuples
           = b.Sim_runtime.stats.Stats.channel_tuples
        && a.Sim_runtime.stats.Stats.faults
           = b.Sim_runtime.stats.Stats.faults)

(* ------------------------------------------------------------------ *)
(* The domain runtime survives the same plans (same generator,         *)
(* smaller N and count).                                               *)
(* ------------------------------------------------------------------ *)

let prop_domain_runtime_faulty =
  prop_faulty_runtime (module Runtime.Domains) ~count:20 ~max_n:3

(* ------------------------------------------------------------------ *)
(* Deterministic cases                                                 *)
(* ------------------------------------------------------------------ *)

let chain_edges n = List.init n (fun i -> (i, i + 1))

let example3_rw () =
  match Strategy.example3 ~seed:0 ~nprocs:2 ancestor with
  | Ok rw -> rw
  | Error msg -> Alcotest.fail msg

let total_firings stats =
  Array.fold_left (fun acc p -> acc + p.Stats.firings) 0 stats.Stats.per_proc

let fault_cases =
  [
    case "crash recovery rebuilds the lost bucket" (fun () ->
        let edges = chain_edges 12 in
        let rw = example3_rw () in
        let edb = edb_of_edges edges in
        let plan =
          Fault.make
            ~crashes:[ { Fault.cr_pid = 1; cr_round = 4; cr_down = 2 } ]
            ()
        in
        let r = Sim_runtime.run ~config:(sim_config plan) rw ~edb in
        Alcotest.check relation_t "closure survives the crash"
          (relation_of_pairs (closure_pairs edges))
          (anc_relation r.Sim_runtime.answers);
        Alcotest.(check int) "one crash" 1
          r.Sim_runtime.stats.Stats.faults.Stats.crashes;
        Alcotest.(check int) "one recovery" 1
          r.Sim_runtime.stats.Stats.faults.Stats.recoveries;
        Alcotest.(check bool) "history was replayed" true
          (r.Sim_runtime.stats.Stats.faults.Stats.replayed > 0));
    case "a crash that would kill the last processor is skipped" (fun () ->
        let edges = chain_edges 6 in
        let program = ancestor in
        let rw =
          match Strategy.general ~seed:0 ~nprocs:1 program with
          | Ok rw -> rw
          | Error msg -> Alcotest.fail msg
        in
        let plan =
          Fault.make
            ~crashes:[ { Fault.cr_pid = 0; cr_round = 1; cr_down = 2 } ]
            ()
        in
        let r =
          Sim_runtime.run ~config:(sim_config plan)
            rw ~edb:(edb_of_edges edges)
        in
        Alcotest.(check int) "no crash happened" 0
          r.Sim_runtime.stats.Stats.faults.Stats.crashes;
        Alcotest.check relation_t "closure intact"
          (relation_of_pairs (closure_pairs edges))
          (anc_relation r.Sim_runtime.answers));
    slow_case "checkpoints cut the recovery cost" (fun () ->
        let edges = chain_edges 16 in
        let rw = example3_rw () in
        let edb = edb_of_edges edges in
        let run checkpoint_every =
          let plan =
            Fault.make
              ~crashes:[ { Fault.cr_pid = 1; cr_round = 8; cr_down = 2 } ]
              ?checkpoint_every ()
          in
          let r = Sim_runtime.run ~config:(sim_config plan) rw ~edb in
          Alcotest.check relation_t "closure correct"
            (relation_of_pairs (closure_pairs edges))
            (anc_relation r.Sim_runtime.answers);
          total_firings r.Sim_runtime.stats
        in
        let baseline = total_firings (Sim_runtime.run rw ~edb).Sim_runtime.stats in
        let cost ck = run ck - baseline in
        let none = cost None in
        let coarse = cost (Some 8) in
        let fine = cost (Some 1) in
        Alcotest.(check bool) "crash without checkpoint re-derives work" true
          (none > 0);
        Alcotest.(check bool) "checkpointing never costs more firings" true
          (coarse <= none && fine <= coarse);
        Alcotest.(check bool) "per-round checkpoints re-derive least" true
          (fine < none));
    case "mailbox close is a poison pill" (fun () ->
        let mb = Mailbox.create () in
        Mailbox.push mb 1;
        Mailbox.close mb;
        Mailbox.push mb 2;
        Alcotest.(check (list int)) "queued survives, late push dropped"
          [ 1 ] (Mailbox.drain_blocking mb);
        Alcotest.(check (list int)) "closed+empty returns, not blocks" []
          (Mailbox.drain_blocking mb);
        Alcotest.(check bool) "is_closed" true (Mailbox.is_closed mb));
    case "mailbox drain_timeout gives up" (fun () ->
        let mb = Mailbox.create () in
        Alcotest.(check (list int)) "timeout on empty open mailbox" []
          (Mailbox.drain_timeout mb ~seconds:0.01);
        Mailbox.push mb 7;
        Alcotest.(check (list int)) "returns queued content" [ 7 ]
          (Mailbox.drain_timeout mb ~seconds:0.01));
    case "crash schedule parsing" (fun () ->
        (match Fault.parse_crashes "1@3,2@5+2" with
         | Ok [ a; b ] ->
           Alcotest.(check int) "pid" 1 a.Fault.cr_pid;
           Alcotest.(check int) "round" 3 a.Fault.cr_round;
           Alcotest.(check int) "default downtime" 1 a.Fault.cr_down;
           Alcotest.(check int) "downtime" 2 b.Fault.cr_down
         | Ok _ -> Alcotest.fail "expected two crashes"
         | Error msg -> Alcotest.fail msg);
        Alcotest.(check bool) "rejects junk" true
          (Result.is_error (Fault.parse_crashes "x@3"));
        Alcotest.(check bool) "rejects zero downtime" true
          (Result.is_error (Fault.parse_crashes "1@3+0")));
    case "fair-lossy bound: late attempts are never dropped" (fun () ->
        let plan = Fault.make ~seed:11 ~drop:0.99 () in
        for seq = 0 to 199 do
          let fate =
            Fault.fate plan ~src:0 ~dst:1 ~seq ~attempt:Fault.drop_ceiling
          in
          if fate.Fault.f_drop then
            Alcotest.failf "seq %d dropped at the ceiling" seq
        done);
    case "plan validation" (fun () ->
        Alcotest.check_raises "drop out of range"
          (Invalid_argument "Fault.make: drop must be in [0, 1), got 1.5")
          (fun () -> ignore (Fault.make ~drop:1.5 ()));
        Alcotest.(check bool) "none is none" true (Fault.is_none Fault.none);
        Alcotest.(check bool) "checkpointing alone is active" false
          (Fault.is_none (Fault.make ~checkpoint_every:2 ())));
  ]

(* A scheduled crash fires once per session, however many drives reach
   its round: the domain runtime counts local rounds afresh in each
   drive. *)
let crash_once_case (module R : Runtime.S) =
  case
    (Printf.sprintf "a scheduled crash fires once per session (%s)" R.name)
    (fun () ->
      let plan =
        Fault.make
          ~crashes:[ { Fault.cr_pid = 1; cr_round = 1; cr_down = 1 } ]
          ()
      in
      let s =
        R.open_session ~config:(sim_config plan) (example3_rw ())
          ~edb:(edb_of_edges (chain_edges 8))
      in
      List.iter
        (fun a ->
          ignore
            (Session.apply s
               (Update_batch.of_list
                  [ Delta.Batch.insert "par" (Tuple.of_ints [ a; a + 1 ]) ])))
        [ 8; 9; 10 ];
      let r = Session.close s in
      let f = r.Session.stats.Stats.faults in
      Alcotest.(check int) "one crash" 1 f.Stats.crashes;
      Alcotest.(check int) "one recovery" 1 f.Stats.recoveries;
      Alcotest.check relation_t "closure of the grown chain"
        (relation_of_pairs (closure_pairs (chain_edges 11)))
        (anc_relation r.Session.answers))

let suites =
  [
    ("fault", fault_cases @ List.map crash_once_case Runtime.all);
    ( "fault-props",
      List.map QCheck_alcotest.to_alcotest
        [
          prop_faulty_equals_sequential;
          prop_faulty_general_scheme;
          prop_zero_fault_exact_counts;
          prop_fault_runs_deterministic;
          prop_domain_runtime_faulty;
        ] );
  ]
