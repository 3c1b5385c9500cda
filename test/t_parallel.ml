(* Tests for Mailbox, Safra and the Domain_runtime. *)

open Datalog
open Pardatalog
open Helpers

let mailbox_tests =
  [
    case "push then drain preserves order" (fun () ->
        let mb = Mailbox.create () in
        List.iter (Mailbox.push mb) [ 1; 2; 3 ];
        Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] (Mailbox.drain mb);
        Alcotest.(check (list int)) "now empty" [] (Mailbox.drain mb));
    case "drain_blocking waits for a producer" (fun () ->
        let mb = Mailbox.create () in
        let producer =
          Domain.spawn (fun () ->
              (* Give the consumer a chance to block first. *)
              Unix.sleepf 0.02;
              Mailbox.push mb 42)
        in
        let got = Mailbox.drain_blocking mb in
        Domain.join producer;
        Alcotest.(check (list int)) "value" [ 42 ] got);
    case "many producers, one consumer" (fun () ->
        let mb = Mailbox.create () in
        let producers =
          List.init 4 (fun d ->
              Domain.spawn (fun () ->
                  for i = 0 to 249 do
                    Mailbox.push mb ((d * 1000) + i)
                  done))
        in
        let received = ref [] in
        while List.length !received < 1000 do
          received := Mailbox.drain_blocking mb @ !received
        done;
        List.iter Domain.join producers;
        Alcotest.(check int) "all arrived" 1000 (List.length !received);
        Alcotest.(check int) "no duplicates" 1000
          (List.length (List.sort_uniq compare !received)));
  ]

(* A single-threaded simulation of a ring of machines exchanging
   messages, to check Safra's algorithm declares termination exactly at
   quiescence. *)
let simulate_ring ~machines ~script =
  (* [script] is a list of (sender, receiver) basic messages, executed
     in order; after each step every in-flight message is immediately
     delivered. After the script, machines go passive and the token
     circulates until detection. Returns the number of probe rounds
     needed after quiescence. *)
  let states = Array.init machines (fun _ -> Safra.create ()) in
  List.iter
    (fun (src, dst) ->
      Safra.record_send states.(src);
      Safra.record_receive states.(dst))
    script;
  (* All passive now; machine 0 probes. *)
  let rounds = ref 0 in
  let detected = ref false in
  while (not !detected) && !rounds < 5 do
    incr rounds;
    let token = ref Safra.initial_token in
    for i = machines - 1 downto 1 do
      token := Safra.forward states.(i) !token
    done;
    match Safra.evaluate states.(0) !token with
    | `Terminated -> detected := true
    | `Try_again -> ()
  done;
  if !detected then Some !rounds else None

let safra_tests =
  [
    case "silent system terminates on the first probe" (fun () ->
        Alcotest.(check (option int)) "one round" (Some 1)
          (simulate_ring ~machines:4 ~script:[]));
    case "after traffic, at most two probes are needed" (fun () ->
        let script = [ (0, 1); (1, 2); (2, 3); (3, 0); (1, 3) ] in
        match simulate_ring ~machines:4 ~script with
        | Some r -> Alcotest.(check bool) "within 2" true (r <= 2)
        | None -> Alcotest.fail "never detected");
    case "receives blacken the machine" (fun () ->
        let m = Safra.create () in
        Alcotest.(check bool) "white initially" true (Safra.color m = Safra.White);
        Safra.record_receive m;
        Alcotest.(check bool) "black after receive" true
          (Safra.color m = Safra.Black));
    case "forward whitens and accumulates" (fun () ->
        let m = Safra.create () in
        Safra.record_send m;
        Safra.record_send m;
        let t = Safra.forward m Safra.initial_token in
        Alcotest.(check int) "q" 2 t.Safra.q;
        Alcotest.(check bool) "machine white" true (Safra.color m = Safra.White));
    case "black machine taints the token" (fun () ->
        let m = Safra.create () in
        Safra.record_send m;
        Safra.record_receive m;
        let t = Safra.forward m Safra.initial_token in
        Alcotest.(check bool) "token black" true
          (t.Safra.token_color = Safra.Black));
    case "in-flight messages block detection" (fun () ->
        (* A message was sent but never received: total balance is +1,
           so no probe may ever succeed. *)
        let states = Array.init 3 (fun _ -> Safra.create ()) in
        Safra.record_send states.(1);
        let detected = ref false in
        for _ = 1 to 4 do
          let token = ref Safra.initial_token in
          for i = 2 downto 1 do
            token := Safra.forward states.(i) !token
          done;
          if Safra.evaluate states.(0) !token = `Terminated then
            detected := true
        done;
        Alcotest.(check bool) "never detected" false !detected);
  ]

let edges = Workload.Graphgen.binary_tree ~depth:5
let edb = edb_of_edges edges

let domain_tests =
  [
    slow_case "domain runtime equals sequential on example 3" (fun () ->
        let rw = Result.get_ok (Strategy.example3 ~nprocs:4 ancestor) in
        let seq, _ = Seminaive.evaluate ancestor edb in
        let r = Domain_runtime.run rw ~edb in
        Alcotest.check relation_t "equal" (anc_relation seq)
          (anc_relation r.Sim_runtime.answers));
    slow_case "domain runtime equals sim runtime answers" (fun () ->
        let rw = Result.get_ok (Strategy.example3 ~nprocs:3 ancestor) in
        let sim = Sim_runtime.run rw ~edb in
        let dom = Domain_runtime.run rw ~edb in
        Alcotest.check relation_t "equal"
          (anc_relation sim.Sim_runtime.answers)
          (anc_relation dom.Sim_runtime.answers));
    slow_case "domain runtime is non-redundant for guarded schemes"
      (fun () ->
        let rw = Result.get_ok (Strategy.example3 ~nprocs:4 ancestor) in
        let _, seq_stats = Seminaive.evaluate ancestor edb in
        let r = Domain_runtime.run rw ~edb in
        Alcotest.(check bool) "firings bounded" true
          (Stats.total_firings r.Sim_runtime.stats
           <= seq_stats.Seminaive.firings));
    slow_case "single-domain run terminates and is exact" (fun () ->
        let rw = Result.get_ok (Strategy.example3 ~nprocs:1 ancestor) in
        let seq, _ = Seminaive.evaluate ancestor edb in
        let r = Domain_runtime.run rw ~edb in
        Alcotest.check relation_t "equal" (anc_relation seq)
          (anc_relation r.Sim_runtime.answers));
    slow_case "no-communication scheme on domains" (fun () ->
        let rw = Result.get_ok (Strategy.no_communication ~nprocs:4 ancestor) in
        let seq, _ = Seminaive.evaluate ancestor edb in
        let r = Domain_runtime.run rw ~edb in
        Alcotest.check relation_t "equal" (anc_relation seq)
          (anc_relation r.Sim_runtime.answers);
        Alcotest.(check int) "no cross-processor traffic" 0
          (Stats.total_messages r.Sim_runtime.stats));
    slow_case "nonlinear program on domains" (fun () ->
        let rw =
          Result.get_ok
            (Strategy.general ~nprocs:3 Workload.Progs.ancestor_nonlinear)
        in
        let small = edb_of_edges (Workload.Graphgen.chain 12) in
        let seq, _ = Seminaive.evaluate ancestor small in
        let r = Domain_runtime.run rw ~edb:small in
        Alcotest.check relation_t "equal" (anc_relation seq)
          (anc_relation r.Sim_runtime.answers));
    slow_case "multiplexing processors onto fewer domains" (fun () ->
        let rw = Result.get_ok (Strategy.example3 ~nprocs:6 ancestor) in
        let seq, _ = Seminaive.evaluate ancestor edb in
        List.iter
          (fun domains ->
            let r =
              Domain_runtime.run
                ~config:Run_config.(default |> with_domains (Some domains))
                rw ~edb
            in
            Alcotest.check relation_t
              (Printf.sprintf "%d domains" domains)
              (anc_relation seq)
              (anc_relation r.Sim_runtime.answers))
          [ 1; 2; 3; 6 ]);
    slow_case "domains above nprocs are capped" (fun () ->
        let rw = Result.get_ok (Strategy.example3 ~nprocs:2 ancestor) in
        let seq, _ = Seminaive.evaluate ancestor edb in
        let r =
          Domain_runtime.run
            ~config:Run_config.(default |> with_domains (Some 16))
            rw ~edb
        in
        Alcotest.check relation_t "equal" (anc_relation seq)
          (anc_relation r.Sim_runtime.answers));
    slow_case "zero domains rejected" (fun () ->
        let rw = Result.get_ok (Strategy.example3 ~nprocs:2 ancestor) in
        Alcotest.(check bool) "raises" true
          (try
             ignore
               (Domain_runtime.run
                  ~config:Run_config.(default |> with_domains (Some 0))
                  rw ~edb);
             false
           with Invalid_argument _ -> true));
    slow_case "wide integers: domain runtime = naive" (fun () ->
        let edb = wide_cycle_edb () in
        let rw = Result.get_ok (Strategy.example3 ~nprocs:3 ancestor) in
        let r = Domain_runtime.run rw ~edb in
        Alcotest.check relation_t "equal"
          (anc_relation (Naive.evaluate ancestor edb))
          (anc_relation r.Sim_runtime.answers));
    slow_case "repeated runs are deterministic in their answers" (fun () ->
        let rw = Result.get_ok (Strategy.example3 ~nprocs:4 ancestor) in
        let a = Domain_runtime.run rw ~edb in
        let b = Domain_runtime.run rw ~edb in
        Alcotest.check relation_t "same answers"
          (anc_relation a.Sim_runtime.answers)
          (anc_relation b.Sim_runtime.answers));
  ]

let suites =
  [
    ("mailbox", mailbox_tests);
    ("safra", safra_tests);
    ("domain_runtime", domain_tests);
  ]
