(* The multi-process runtime: exactness over real sockets.

   Every test here spawns genuine OS processes ([Net_runtime.Fork])
   talking to a coordinator over Unix-domain sockets, with the
   deterministic fault shim sitting on the coordinator's payload
   path. The guarantees mirror the in-process fault suite: pooled
   answers equal the sequential evaluation under random socket-level
   fault plans; a worker SIGKILLed mid-run is restarted and restored
   from its checkpoint with the exact answer; and a zero-probability
   plan leaves the paper's communication counts untouched. *)

open Datalog
open Pardatalog
module G = Workload.Graphgen

let anc_text = "anc(X,Y) :- par(X,Y).\nanc(X,Y) :- anc(X,Z), par(Z,Y).\n"
(* Discriminating on Y (not the preserved X) forces tuples to migrate
   between processors every round, so the reliable layer and the fault
   shim actually see traffic. *)
let anc_spec = Net.Wire.Spec_q { ve = [ "Y" ]; vr = [ "Y" ] }

(* Build the coordinator-side rewrite exactly the way a worker will:
   from the program text, so symbol interning agrees. *)
let anc_rw ~seed ~nprocs =
  let program = Parser.program_exn anc_text in
  match Strategy.hash_q ~seed ~nprocs ~ve:[ "Y" ] ~vr:[ "Y" ] program with
  | Ok rw -> rw
  | Error e -> failwith e

let seq_answers edges =
  let program = Parser.program_exn anc_text in
  let seq, _ = Seminaive.evaluate program (Workload.Edb.of_edges edges) in
  Database.get seq "anc"

let net_run ?(config = Run_config.default) ?(procs = 2) ~seed ~nprocs edges =
  Net.Net_runtime.run ~config ~program:anc_text ~spec:anc_spec ~seed ~procs
    ~spawn:Net.Net_runtime.Fork
    (anc_rw ~seed ~nprocs)
    ~edb:(Workload.Edb.of_edges edges)

(* ------------------------------------------------------------------ *)
(* Random socket-level fault plans on chain / grid / hotspot           *)
(* ------------------------------------------------------------------ *)

type work = Chain of int | Grid of int * int | Hotspot of int

let edges_of = function
  | Chain n -> G.chain n
  | Grid (r, c) -> G.grid ~rows:r ~cols:c
  | Hotspot seed ->
    G.hotspot (Workload.Rng.create ~seed) ~nodes:12 ~edges:26 ~hubs:2

let print_work = function
  | Chain n -> Printf.sprintf "chain %d" n
  | Grid (r, c) -> Printf.sprintf "grid %dx%d" r c
  | Hotspot s -> Printf.sprintf "hotspot seed=%d" s

type cfg = {
  c_work : work;
  c_seed : int;
  c_nprocs : int;
  c_procs : int;
  c_drop : int;  (* twentieths *)
  c_dup : int;
  c_delay : int;
  c_crash : (int * int) option;  (* pid hint, round *)
  c_checkpoint : int;
}

let cfg_gen =
  QCheck.Gen.(
    let* c_work =
      oneof
        [
          map (fun n -> Chain n) (int_range 6 16);
          map (fun (r, c) -> Grid (r, c)) (pair (int_range 2 3) (int_range 2 4));
          map (fun s -> Hotspot s) (int_range 0 99);
        ]
    in
    let* c_seed = int_range 0 999 in
    let* c_nprocs = int_range 2 4 in
    let* c_procs = int_range 1 3 in
    let* c_drop = int_range 0 5 in
    let* c_dup = int_range 0 4 in
    let* c_delay = int_range 0 4 in
    let* c_crash =
      oneof
        [
          return None;
          map2 (fun p r -> Some (p, r)) (int_range 0 3) (int_range 1 3);
        ]
    in
    let* c_checkpoint = int_range 1 3 in
    return
      { c_work; c_seed; c_nprocs; c_procs; c_drop; c_dup; c_delay; c_crash;
        c_checkpoint })

let cfg_arb =
  QCheck.make
    ~print:(fun c ->
      Printf.sprintf
        "%s seed=%d n=%d procs=%d drop=%d/20 dup=%d/20 delay=%d/20 \
         crash=%s ckpt=%d"
        (print_work c.c_work) c.c_seed c.c_nprocs c.c_procs c.c_drop c.c_dup
        c.c_delay
        (match c.c_crash with
         | None -> "-"
         | Some (p, r) -> Printf.sprintf "%d@%d" p r)
        c.c_checkpoint)
    cfg_gen

let plan_of c =
  Fault.make ~seed:c.c_seed
    ~drop:(float_of_int c.c_drop /. 20.0)
    ~dup:(float_of_int c.c_dup /. 20.0)
    ~delay:(float_of_int c.c_delay /. 20.0)
    ~max_delay:2
    ~crashes:
      (match c.c_crash with
       | None -> []
       | Some (p, r) ->
         [ { Fault.cr_pid = p mod c.c_nprocs; cr_round = r; cr_down = 1 } ])
    ~checkpoint_every:c.c_checkpoint ()

let prop_faulty_net_equals_sequential =
  QCheck.Test.make ~count:12
    ~name:"random socket faults: net runtime = sequential" cfg_arb
    (fun c ->
      let edges = edges_of c.c_work in
      let config = Run_config.(default |> with_fault (plan_of c)) in
      let r =
        net_run ~config ~procs:c.c_procs ~seed:c.c_seed ~nprocs:c.c_nprocs
          edges
      in
      Relation.equal (seq_answers edges)
        (Database.get r.Sim_runtime.answers "anc"))

(* ------------------------------------------------------------------ *)
(* A SIGKILLed worker is restarted and restored from its checkpoint.   *)
(* ------------------------------------------------------------------ *)

let unit_crash_restore () =
  let edges = G.chain 20 in
  let plan =
    Fault.make
      ~crashes:[ { Fault.cr_pid = 1; cr_round = 2; cr_down = 1 } ]
      ~checkpoint_every:2 ()
  in
  let config = Run_config.(default |> with_fault plan) in
  let r = net_run ~config ~procs:2 ~seed:7 ~nprocs:4 edges in
  Alcotest.check Helpers.relation_t "exact answers after SIGKILL + restore"
    (seq_answers edges)
    (Database.get r.Sim_runtime.answers "anc");
  let f = r.Sim_runtime.stats.Stats.faults in
  let t = r.Sim_runtime.stats.Stats.transport in
  Alcotest.(check bool) "a crash fired" true (f.Stats.crashes >= 1);
  Alcotest.(check bool) "restored from a checkpoint" true
    (f.Stats.restores >= 1);
  Alcotest.(check bool) "the supervisor restarted the worker" true
    (t.Stats.worker_restarts >= 1);
  Alcotest.(check bool) "the restarted worker re-dialled" true
    (t.Stats.reconnects >= 1)

(* ------------------------------------------------------------------ *)
(* A zero-probability plan (the reliable layer armed, nothing faulted) *)
(* reproduces the in-process runtime's message counts exactly, so the  *)
(* paper's communication claims survive the move onto real sockets.    *)
(* ------------------------------------------------------------------ *)

let unit_zero_fault_exact_counts () =
  let edges = G.chain 14 in
  let seed = 3 and nprocs = 3 in
  let plan = Fault.make ~checkpoint_every:3 () in
  let config = Run_config.(default |> with_fault plan) in
  let net = net_run ~config ~procs:2 ~seed ~nprocs edges in
  let sim =
    Sim_runtime.run
      (anc_rw ~seed ~nprocs)
      ~edb:(Workload.Edb.of_edges edges)
  in
  let sent s = Array.map (fun p -> p.Stats.tuples_sent) s.Stats.per_proc in
  let received s =
    Array.map (fun p -> p.Stats.tuples_received) s.Stats.per_proc
  in
  Alcotest.check Helpers.database_t "answers agree" sim.Sim_runtime.answers
    net.Sim_runtime.answers;
  Alcotest.(check bool) "channel tuple matrix" true
    (sim.Sim_runtime.stats.Stats.channel_tuples
    = net.Sim_runtime.stats.Stats.channel_tuples);
  Alcotest.(check (array int)) "per-processor sent"
    (sent sim.Sim_runtime.stats)
    (sent net.Sim_runtime.stats);
  Alcotest.(check (array int)) "per-processor received"
    (received sim.Sim_runtime.stats)
    (received net.Sim_runtime.stats);
  Alcotest.(check int) "no retransmissions" 0
    net.Sim_runtime.stats.Stats.transport.Stats.wire_retransmits

(* ------------------------------------------------------------------ *)
(* Plain run sanity: more workers than processors, single worker.      *)
(* ------------------------------------------------------------------ *)

let unit_worker_clamp () =
  let edges = G.chain 10 in
  List.iter
    (fun procs ->
      let r = net_run ~procs ~seed:1 ~nprocs:2 edges in
      Alcotest.check Helpers.relation_t
        (Printf.sprintf "procs=%d pools the sequential answer" procs)
        (seq_answers edges)
        (Database.get r.Sim_runtime.answers "anc"))
    [ 1; 2; 5 ]

(* ------------------------------------------------------------------ *)
(* Integers beyond 62 bits: relations intern their raw words, the wire *)
(* carries the constants, and the sequential engine, the simulator and *)
(* the net runtime all match the naive oracle (domains: t_parallel).   *)
(* ------------------------------------------------------------------ *)

let unit_wide_ints_every_runtime () =
  let edb = Helpers.wide_cycle_edb () in
  let program = Parser.program_exn anc_text in
  let oracle = Database.get (Naive.evaluate program edb) "anc" in
  Alcotest.(check int) "the cycle closes into 25 tuples" 25
    (Relation.cardinal oracle);
  let check name db =
    Alcotest.check Helpers.relation_t name oracle (Database.get db "anc")
  in
  let seed = 5 and nprocs = 3 in
  check "sequential" (fst (Seminaive.evaluate program edb));
  check "sim" (Sim_runtime.run (anc_rw ~seed ~nprocs) ~edb).Sim_runtime.answers;
  check "net"
    (Net.Net_runtime.run ~config:Run_config.default ~program:anc_text
       ~spec:anc_spec ~seed ~procs:2 ~spawn:Net.Net_runtime.Fork
       (anc_rw ~seed ~nprocs) ~edb)
      .Sim_runtime.answers

let suites =
  [
    ( "net",
      [ QCheck_alcotest.to_alcotest prop_faulty_net_equals_sequential ]
      @ [
          Alcotest.test_case "SIGKILL mid-run: checkpoint restore" `Quick
            unit_crash_restore;
          Alcotest.test_case "zero-probability plan: exact counts" `Quick
            unit_zero_fault_exact_counts;
          Alcotest.test_case "worker count clamps" `Quick unit_worker_clamp;
          Alcotest.test_case "wide integers: seq, sim and net = naive" `Quick
            unit_wide_ints_every_runtime;
        ] );
  ]
