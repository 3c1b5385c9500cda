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

(* ------------------------------------------------------------------ *)
(* A budget breach or a blown deadline stops the fleet with partial    *)
(* statistics for every processor and leaves no worker behind.        *)
(* ------------------------------------------------------------------ *)

(* The children of this process, live or unreaped, from /proc. A stat
   line reads "pid (comm) state ppid ...", and comm may hold spaces. *)
let children () =
  let me = Unix.getpid () in
  List.filter_map
    (fun d ->
      match int_of_string_opt d with
      | None -> None
      | Some pid -> (
        match
          In_channel.with_open_text
            (Printf.sprintf "/proc/%d/stat" pid)
            In_channel.input_all
        with
        | exception Sys_error _ -> None
        | stat -> (
          let rest =
            let i = String.rindex stat ')' in
            String.sub stat (i + 2) (String.length stat - i - 2)
          in
          match String.split_on_char ' ' rest with
          | _state :: ppid :: _ when int_of_string ppid = me -> Some pid
          | _ -> None)))
    (Array.to_list (Sys.readdir "/proc"))

let unit_overload_stop () =
  let edges = G.chain 40 in
  let seed = 2 and nprocs = 3 in
  let check name limits kind =
    let config = Run_config.(default |> with_limits limits) in
    match net_run ~config ~procs:2 ~seed ~nprocs edges with
    | _ -> Alcotest.failf "%s: the run finished within its budget" name
    | exception Overload.Overload { reason; stats } ->
      Alcotest.(check string) (name ^ ": reason") kind
        (Overload.reason_kind reason);
      Alcotest.(check (list int)) (name ^ ": a row per processor")
        (List.init nprocs Fun.id)
        (Array.to_list (Array.map (fun p -> p.Stats.pid) stats.Stats.per_proc));
      Alcotest.(check (list int)) (name ^ ": no worker left behind") []
        (children ())
  in
  check "store budget"
    { Overload.no_limits with max_store_rows = Some 30 }
    "store_budget";
  check "deadline" { Overload.no_limits with deadline = Some 0.001 } "deadline"

(* ------------------------------------------------------------------ *)
(* Bytes from a stray local process that never sends a Hello close    *)
(* that connection only; the session keeps serving.                   *)
(* ------------------------------------------------------------------ *)

(* A session listens on [datalogp-net-<pid>-<k>.sock] in the temp
   directory and unlinks it when it ends, so while one session is open
   this process has exactly one such socket. *)
let session_socket () =
  let dir = Filename.get_temp_dir_name () in
  let prefix = Printf.sprintf "datalogp-net-%d-" (Unix.getpid ()) in
  match
    List.filter (String.starts_with ~prefix) (Array.to_list (Sys.readdir dir))
  with
  | [ name ] -> Filename.concat dir name
  | l -> Alcotest.failf "expected one session socket, found %d" (List.length l)

let unit_stray_bytes () =
  let edges = G.chain 10 in
  let seed = 1 and nprocs = 2 in
  let s =
    Net.Net_runtime.open_session ~config:Run_config.default ~program:anc_text
      ~spec:anc_spec ~seed ~procs:2 ~spawn:Net.Net_runtime.Fork
      (anc_rw ~seed ~nprocs)
      ~edb:(Workload.Edb.of_edges edges)
  in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX (session_socket ()));
      (* A length prefix of -1: no frame can follow it. *)
      ignore (Unix.write_substring fd "\xff\xff\xff\xff" 0 4);
      ignore
        (Session.apply s
           (Update_batch.of_list
              [ Delta.Batch.insert "par" (Tuple.of_ints [ 9; 10 ]) ]));
      let r = Session.close s in
      Alcotest.check Helpers.relation_t "the session's answer after the insert"
        (seq_answers (edges @ [ (9, 10) ]))
        (Database.get r.Session.answers "anc"))

(* ------------------------------------------------------------------ *)
(* A worker killed while the session is idle: its models are already  *)
(* collected, so closing pools them without restarting it.             *)
(* ------------------------------------------------------------------ *)

let unit_idle_death_close () =
  let edges = G.chain 12 in
  let seed = 4 and nprocs = 3 in
  let rw = anc_rw ~seed ~nprocs in
  let s =
    Net.Net_runtime.open_session ~config:Run_config.default ~program:anc_text
      ~spec:anc_spec ~seed ~procs:2 ~spawn:Net.Net_runtime.Fork rw
      ~edb:(Workload.Edb.of_edges edges)
  in
  (match children () with
   | victim :: _ ->
     Unix.kill victim Sys.sigkill;
     ignore (Unix.waitpid [] victim)
   | [] -> Alcotest.fail "no worker process");
  let r = Session.close s in
  let sim = Sim_runtime.run rw ~edb:(Workload.Edb.of_edges edges) in
  let firings (st : Stats.t) =
    Array.fold_left (fun n p -> n + p.Stats.firings) 0 st.Stats.per_proc
  in
  Alcotest.check Helpers.relation_t "the collected answer" (seq_answers edges)
    (Database.get r.Session.answers "anc");
  Alcotest.(check int) "no work redone" (firings sim.Sim_runtime.stats)
    (firings r.Session.stats);
  Alcotest.(check int) "no restart" 0
    r.Session.stats.Stats.transport.Stats.worker_restarts

(* ------------------------------------------------------------------ *)
(* A no-communication plan over real sockets: every derived tuple     *)
(* stays with the processor that derived it, and the collected models *)
(* still pool the sequential answer with the simulator's firings.     *)
(* ------------------------------------------------------------------ *)

let unit_nocomm_pools_sequential () =
  let program = Parser.program_exn anc_text in
  let seed = 2 and nprocs = 3 in
  let rw () =
    match Strategy.no_communication ~seed ~nprocs program with
    | Ok rw -> rw
    | Error e -> failwith e
  in
  List.iter
    (fun work ->
      let edges = edges_of work in
      let edb = Workload.Edb.of_edges edges in
      let net =
        Net.Net_runtime.run ~config:Run_config.default ~program:anc_text
          ~spec:Net.Wire.Spec_nocomm ~seed ~procs:2
          ~spawn:Net.Net_runtime.Fork (rw ()) ~edb
      in
      let sim = Sim_runtime.run (rw ()) ~edb in
      let name = print_work work in
      Alcotest.check Helpers.relation_t (name ^ ": the sequential answer")
        (seq_answers edges)
        (Database.get net.Session.answers "anc");
      Alcotest.(check int) (name ^ ": the simulator's firings")
        (Stats.total_firings sim.Session.stats)
        (Stats.total_firings net.Session.stats))
    [ Chain 30; Hotspot 7 ]

(* ------------------------------------------------------------------ *)
(* A session under crashes and checkpoints: a RETRACT of a middle     *)
(* edge, then a worker SIGKILLed and restored, then the re-insert.    *)
(* ------------------------------------------------------------------ *)

(* The session opens on two chains, 0..4 and 100..104. The RETRACT of
   par(2,3) reaches the workers between checkpoints, often with the
   last tuples of both chains still unshipped: retracted ones of the
   first, live ones of the second. Up to there a processor takes at
   most 40 steps (one per tuple entering its store: 20 [anc] tuples,
   each stored once derived and once received at most), while the
   55-edge extension of the first chain inserted next takes it past
   step 41, where processor 0 crashes. The re-insert then extends both chains. A restore that
   resurrected a retracted tuple shows in the model after the
   extension; one that lost a live unshipped tuple, after the
   re-insert. Whether a worker holds such tuples unshipped depends on
   message timing, hence four hash seeds. *)
let session_retract_restore seed =
  let nprocs = 2 in
  let program = Parser.program_exn anc_text in
  let edb =
    Workload.Edb.of_edges
      (G.chain 5 @ List.map (fun (a, b) -> (a + 100, b + 100)) (G.chain 5))
  in
  let plan =
    Fault.make
      ~crashes:[ { Fault.cr_pid = 0; cr_round = 41; cr_down = 1 } ]
      ~checkpoint_every:2 ()
  in
  let s =
    Net.Net_runtime.open_session
      ~config:Run_config.(default |> with_fault plan)
      ~program:anc_text ~spec:anc_spec ~seed ~procs:2
      ~spawn:Net.Net_runtime.Fork (anc_rw ~seed ~nprocs) ~edb
  in
  let oracle = Stratified.Live.create program ~edb in
  let par op (a, b) = op "par" (Tuple.of_ints [ a; b ]) in
  let check label =
    Alcotest.(check (list Helpers.tuple_t))
      label
      (Stratified.Live.query oracle "anc")
      (Session.query s "anc")
  in
  check "opened";
  List.iter
    (fun (label, ops) ->
      ignore (Stratified.Live.apply oracle (Delta.Batch.of_list ops));
      ignore (Session.apply s (Update_batch.of_list ops));
      check label)
    [
      ("after the RETRACT", [ par Delta.Batch.delete (2, 3) ]);
      ( "after the extension (crash and restore)",
        List.map (par Delta.Batch.insert)
          (List.init 55 (fun i -> (i + 4, i + 5))) );
      ( "after the re-insert",
        List.map (par Delta.Batch.insert) [ (2, 3); (104, 105) ] );
    ];
  let f = (Session.close s).Session.stats.Stats.faults in
  Alcotest.(check bool) "a crash fired" true (f.Stats.crashes >= 1);
  Alcotest.(check bool) "restored from a checkpoint" true
    (f.Stats.restores >= 1)

let unit_session_retract_restore () =
  List.iter session_retract_restore [ 7; 8; 9; 10 ]

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
          Alcotest.test_case "overload stop: partial rows, no leaked worker"
            `Quick unit_overload_stop;
          Alcotest.test_case "stray bytes before a Hello: session survives"
            `Quick unit_stray_bytes;
          Alcotest.test_case "worker killed while idle: close pools its models"
            `Quick unit_idle_death_close;
          Alcotest.test_case "nocomm plan: pools the sequential model" `Quick
            unit_nocomm_pools_sequential;
          Alcotest.test_case "session: RETRACT, crash, restore = Live"
            `Quick unit_session_retract_restore;
        ] );
  ]
