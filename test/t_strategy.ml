(* Tests for Strategy, Stats and Verify. *)

open Datalog
open Pardatalog
open Helpers

let edges = Workload.Graphgen.binary_tree ~depth:4
let edb = edb_of_edges edges

let strategy_tests =
  [
    case "tc_shape accepts ancestor" (fun () ->
        Alcotest.(check bool) "ok" true
          (Result.is_ok (Strategy.tc_shape ancestor)));
    case "tc_shape accepts renamed variants" (fun () ->
        let p =
          Parser.program_exn
            "reach(A,B) :- edge(A,B). reach(A,B) :- edge(A,M), reach(M,B)."
        in
        Alcotest.(check bool) "ok" true (Result.is_ok (Strategy.tc_shape p)));
    case "tc_shape rejects the right-linear variant" (fun () ->
        let p =
          Parser.program_exn
            "anc(X,Y) :- par(X,Y). anc(X,Y) :- anc(X,Z), par(Z,Y)."
        in
        Alcotest.(check bool) "rejected" true
          (Result.is_error (Strategy.tc_shape p)));
    case "tc_shape rejects ternary programs" (fun () ->
        Alcotest.(check bool) "rejected" true
          (Result.is_error (Strategy.tc_shape Workload.Progs.example7)));
    case "example1 sends nothing and replicates the base" (fun () ->
        let rw = Result.get_ok (Strategy.example1 ~nprocs:4 ancestor) in
        let report = Verify.check rw ~edb in
        Alcotest.(check bool) "equal" true report.Verify.equal_answers;
        Alcotest.(check int) "no messages" 0 report.Verify.messages;
        Alcotest.(check (list (pair string bool)))
          "par shared"
          [ ("par", false) ]
          rw.Rewrite.fragmented);
    case "example1 and example3 handle per-rule variable renamings"
      (fun () ->
        let renamed =
          Parser.program_exn
            "reach(S,T) :- edge(S,T). reach(A,B) :- edge(A,M), reach(M,B)."
        in
        let edb = edb_of_edges ~pred:"edge" (Workload.Graphgen.chain 12) in
        List.iter
          (fun build ->
            match build renamed with
            | Error e -> Alcotest.fail e
            | Ok rw ->
              let report = Verify.check rw ~edb in
              Alcotest.(check bool) "equal" true report.Verify.equal_answers;
              Alcotest.(check bool) "non-redundant" true
                report.Verify.non_redundant)
          [
            Strategy.example1 ~nprocs:3;
            Strategy.example3 ~nprocs:3;
          ]);
    case "hash_q builds a runnable rewrite" (fun () ->
        let rw =
          Result.get_ok
            (Strategy.hash_q ~nprocs:3 ~ve:[ "Y" ] ~vr:[ "Y" ] ancestor)
        in
        let report = Verify.check rw ~edb in
        Alcotest.(check bool) "equal" true report.Verify.equal_answers);
    case "hash_q propagates validation errors" (fun () ->
        Alcotest.(check bool) "error" true
          (Result.is_error
             (Strategy.hash_q ~nprocs:3 ~ve:[ "Y" ] ~vr:[ "Nope" ] ancestor)));
    case "no_communication errors on acyclic dataflow" (fun () ->
        Alcotest.(check bool) "error" true
          (Result.is_error
             (Strategy.no_communication ~nprocs:3 Workload.Progs.example7)));
    case "example2 requires the tc shape" (fun () ->
        Alcotest.(check bool) "error" true
          (Result.is_error
             (Strategy.example2 ~nprocs:2
                ~partition:(fun _ -> 0)
                Workload.Progs.example7)));
    case "example2 keeps fragments where the partition put them" (fun () ->
        let rng = Workload.Rng.create ~seed:21 in
        let partition = Workload.Edb.partition_random rng ~nprocs:3 edb ~pred:"par" in
        let rw = Result.get_ok (Strategy.example2 ~nprocs:3 ~partition ancestor) in
        Relation.iter
          (fun t ->
            List.iter
              (fun pid ->
                Alcotest.(check bool) "residency matches partition"
                  (partition t = pid)
                  (rw.Rewrite.resident pid "par" t))
              [ 0; 1; 2 ])
          (Database.get edb "par"));
    case "example2 is correct on a random partition" (fun () ->
        let rng = Workload.Rng.create ~seed:4 in
        let partition = Workload.Edb.partition_random rng ~nprocs:4 edb ~pred:"par" in
        let rw = Result.get_ok (Strategy.example2 ~nprocs:4 ~partition ancestor) in
        let report = Verify.check rw ~edb in
        Alcotest.(check bool) "equal" true report.Verify.equal_answers;
        Alcotest.(check bool) "non-redundant" true report.Verify.non_redundant);
    case "example2 is correct on a range partition" (fun () ->
        let partition = Workload.Edb.partition_range ~nprocs:4 edb ~pred:"par" in
        let rw = Result.get_ok (Strategy.example2 ~nprocs:4 ~partition ancestor) in
        let report = Verify.check rw ~edb in
        Alcotest.(check bool) "equal" true report.Verify.equal_answers);
    case "example3 unicast: every tuple processed at one site" (fun () ->
        let rw = Result.get_ok (Strategy.example3 ~nprocs:4 ancestor) in
        let r = Sim_runtime.run rw ~edb in
        (* With unicast sends, each distinct anc tuple is accepted (at
           most) once across all processors: sum of accepted <= |anc|. *)
        let accepted =
          Array.fold_left
            (fun acc p -> acc + p.Stats.tuples_accepted)
            0 r.Sim_runtime.stats.Stats.per_proc
        in
        let total_anc =
          Database.cardinal r.Sim_runtime.answers "anc"
        in
        Alcotest.(check bool) "unique processing sites" true
          (accepted <= total_anc));
    case "tradeoff endpoints match the named schemes" (fun () ->
        let r0 =
          Verify.check
            (Result.get_ok (Strategy.tradeoff ~nprocs:4 ~alpha:0.0 ancestor))
            ~edb
        in
        let r1 =
          Verify.check
            (Result.get_ok (Strategy.tradeoff ~nprocs:4 ~alpha:1.0 ancestor))
            ~edb
        in
        Alcotest.(check bool) "alpha=0 equal" true r0.Verify.equal_answers;
        Alcotest.(check bool) "alpha=0 non-redundant" true
          r0.Verify.non_redundant;
        Alcotest.(check bool) "alpha=1 equal" true r1.Verify.equal_answers;
        Alcotest.(check int) "alpha=1 no communication" 0 r1.Verify.messages);
    case "tradeoff interior points remain correct" (fun () ->
        List.iter
          (fun alpha ->
            let r =
              Verify.check
                (Result.get_ok (Strategy.tradeoff ~nprocs:4 ~alpha ancestor))
                ~edb
            in
            Alcotest.(check bool)
              (Printf.sprintf "alpha=%.2f equal" alpha)
              true r.Verify.equal_answers)
          [ 0.25; 0.5; 0.75 ]);
    case "general default choice matches the paper on example 8" (fun () ->
        let rw =
          Result.get_ok
            (Strategy.general ~nprocs:2 Workload.Progs.ancestor_nonlinear)
        in
        (* v(r2) should be the join variable Z: the recursive rule's
           guard must then mention exactly one variable. *)
        let prog = rw.Rewrite.programs.(0) in
        let rec_rule =
          List.find
            (fun (r : Rule.t) -> List.length r.Rule.body = 2)
            (Program.rules prog)
        in
        (match rec_rule.Rule.guards with
         | [ g ] ->
           Alcotest.(check (array string)) "guard vars" [| "Z" |] g.Rule.gvars
         | _ -> Alcotest.fail "expected one guard"));
    case "general rejects broken programs" (fun () ->
        let p = Parser.program_exn "p(X,W) :- q(X)." in
        Alcotest.(check bool) "error" true
          (Result.is_error (Strategy.general ~nprocs:2 p)));
  ]

let stats_tests =
  [
    case "totals and messages" (fun () ->
        let rw = Result.get_ok (Strategy.example3 ~nprocs:3 ancestor) in
        let r = Sim_runtime.run rw ~edb in
        let s = r.Sim_runtime.stats in
        let per_proc_sum =
          Array.fold_left (fun acc p -> acc + p.Stats.firings) 0 s.Stats.per_proc
        in
        Alcotest.(check int) "total_firings is the sum" per_proc_sum
          (Stats.total_firings s);
        Alcotest.(check bool) "self excluded by default" true
          (Stats.total_messages s <= Stats.total_messages ~include_self:true s));
    case "channel matrix agrees with per-processor sent counters" (fun () ->
        let rw = Result.get_ok (Strategy.example3 ~nprocs:3 ancestor) in
        let r = Sim_runtime.run rw ~edb in
        let s = r.Sim_runtime.stats in
        Array.iteri
          (fun i p ->
            let row = Array.fold_left ( + ) 0 s.Stats.channel_tuples.(i) in
            Alcotest.(check int) "row sum" p.Stats.tuples_sent row)
          s.Stats.per_proc);
    case "used_channels lists exactly the nonzero entries" (fun () ->
        let rw = Result.get_ok (Strategy.example3 ~nprocs:3 ancestor) in
        let r = Sim_runtime.run rw ~edb in
        let s = r.Sim_runtime.stats in
        List.iter
          (fun (i, j) ->
            Alcotest.(check bool) "nonzero" true (s.Stats.channel_tuples.(i).(j) > 0))
          (Stats.used_channels ~include_self:true s));
    case "load imbalance of a balanced matrix is near 1" (fun () ->
        let rw = Result.get_ok (Strategy.example3 ~nprocs:2 ancestor) in
        let r = Sim_runtime.run rw ~edb in
        let im = Stats.load_imbalance r.Sim_runtime.stats in
        Alcotest.(check bool) "between 1 and nprocs" true
          (im >= 1.0 && im <= 2.0));
    case "trace accounts for every derived tuple" (fun () ->
        let rw = Result.get_ok (Strategy.example3 ~nprocs:3 ancestor) in
        let r = Sim_runtime.run rw ~edb in
        let s = r.Sim_runtime.stats in
        Alcotest.(check int) "one row per round plus initialization"
          (s.Stats.rounds + 1)
          (List.length s.Stats.trace);
        Alcotest.(check int) "frontier sums to new tuples"
          (Stats.total_new_tuples s)
          (List.fold_left ( + ) 0 (Stats.frontier_profile s));
        Alcotest.(check bool) "peak parallelism within bounds" true
          (let p = Stats.peak_parallelism s in
           p >= 1 && p <= 3));
    case "domain runtime has no synchronous trace" (fun () ->
        let rw = Result.get_ok (Strategy.example3 ~nprocs:2 ancestor) in
        let r = Pardatalog.Domain_runtime.run rw ~edb in
        Alcotest.(check int) "empty trace" 0
          (List.length r.Sim_runtime.stats.Stats.trace));
    case "redundancy_vs is zero at equality" (fun () ->
        let rw = Result.get_ok (Strategy.example3 ~nprocs:2 ancestor) in
        let report = Verify.check rw ~edb in
        if report.Verify.parallel_firings = report.Verify.sequential_firings
        then
          Alcotest.(check (float 0.0001)) "zero" 0.0 report.Verify.redundancy);
  ]

let workload_tests =
  [
    case "chain shape" (fun () ->
        Alcotest.(check (list (pair int int)))
          "edges" [ (0, 1); (1, 2) ] (Workload.Graphgen.chain 3);
        Alcotest.(check (list (pair int int))) "empty" [] (Workload.Graphgen.chain 1));
    case "cycle closes the chain" (fun () ->
        let c = Workload.Graphgen.cycle 4 in
        Alcotest.(check bool) "closing edge" true (List.mem (3, 0) c);
        Alcotest.(check int) "n edges" 4 (List.length c));
    case "binary tree edge count" (fun () ->
        Alcotest.(check int) "depth 3" 14
          (List.length (Workload.Graphgen.binary_tree ~depth:3)));
    case "random digraph has no dups or self loops" (fun () ->
        let rng = Workload.Rng.create ~seed:8 in
        let es = Workload.Graphgen.random_digraph rng ~nodes:20 ~edges:50 in
        Alcotest.(check int) "count" 50 (List.length es);
        Alcotest.(check int) "distinct" 50
          (List.length (List.sort_uniq compare es));
        Alcotest.(check bool) "no self loops" true
          (List.for_all (fun (a, b) -> a <> b) es));
    case "dense random digraph request is capped" (fun () ->
        let rng = Workload.Rng.create ~seed:8 in
        let es = Workload.Graphgen.random_digraph rng ~nodes:5 ~edges:100 in
        Alcotest.(check int) "capped at n(n-1)" 20 (List.length es));
    case "random digraph is deterministic per seed" (fun () ->
        let a =
          Workload.Graphgen.random_digraph (Workload.Rng.create ~seed:9)
            ~nodes:10 ~edges:20
        in
        let b =
          Workload.Graphgen.random_digraph (Workload.Rng.create ~seed:9)
            ~nodes:10 ~edges:20
        in
        Alcotest.(check bool) "equal" true (a = b));
    case "layered dag respects layer structure" (fun () ->
        let rng = Workload.Rng.create ~seed:2 in
        let es = Workload.Graphgen.layered_dag rng ~layers:3 ~width:4 ~out_degree:2 in
        List.iter
          (fun (a, b) ->
            Alcotest.(check int) "next layer" ((a / 4) + 1) (b / 4))
          es);
    case "grid edge count" (fun () ->
        (* rows*(cols-1) + (rows-1)*cols *)
        Alcotest.(check int) "3x4" (3 * 3 + 2 * 4)
          (List.length (Workload.Graphgen.grid ~rows:3 ~cols:4)));
    case "node_count" (fun () ->
        Alcotest.(check int) "chain" 5
          (Workload.Graphgen.node_count (Workload.Graphgen.chain 5)));
    case "rng int bounds" (fun () ->
        let rng = Workload.Rng.create ~seed:1 in
        for _ = 1 to 1000 do
          let v = Workload.Rng.int rng 7 in
          if v < 0 || v >= 7 then Alcotest.failf "out of bounds: %d" v
        done);
    case "rng float bounds" (fun () ->
        let rng = Workload.Rng.create ~seed:1 in
        for _ = 1 to 1000 do
          let v = Workload.Rng.float rng in
          if v < 0.0 || v >= 1.0 then Alcotest.failf "out of bounds: %f" v
        done);
    case "rng split gives a different stream" (fun () ->
        let a = Workload.Rng.create ~seed:5 in
        let b = Workload.Rng.split a in
        let xs = List.init 10 (fun _ -> Workload.Rng.int a 1000) in
        let ys = List.init 10 (fun _ -> Workload.Rng.int b 1000) in
        Alcotest.(check bool) "different" true (xs <> ys));
    case "same_generation has person and par relations" (fun () ->
        let rng = Workload.Rng.create ~seed:6 in
        let db = Workload.Edb.same_generation rng ~people:10 ~parents_per:2 in
        Alcotest.(check int) "people" 10 (Database.cardinal db "person");
        Alcotest.(check bool) "parents exist" true
          (Database.cardinal db "par" > 0));
    case "partition_random covers all fragments eventually" (fun () ->
        let rng = Workload.Rng.create ~seed:10 in
        let db = edb_of_edges (Workload.Graphgen.chain 50) in
        let partition = Workload.Edb.partition_random rng ~nprocs:4 db ~pred:"par" in
        let sizes = Workload.Edb.fragment_sizes ~nprocs:4 partition db ~pred:"par" in
        Alcotest.(check int) "total preserved" 49
          (Array.fold_left ( + ) 0 sizes));
    case "partition_range is contiguous and balanced" (fun () ->
        let db = edb_of_edges (Workload.Graphgen.chain 41) in
        let partition = Workload.Edb.partition_range ~nprocs:4 db ~pred:"par" in
        let sizes = Workload.Edb.fragment_sizes ~nprocs:4 partition db ~pred:"par" in
        Alcotest.(check int) "total" 40 (Array.fold_left ( + ) 0 sizes);
        Array.iter
          (fun s -> Alcotest.(check bool) "roughly n/4" true (s <= 10))
          sizes);
  ]

(* ------------------------------------------------------------------ *)
(* Self-routed predicates: Theorem 3's communication-free choices keep *)
(* one relation per processor, every other scheme keeps @in/@out, and  *)
(* the in-place runs keep Theorems 2 and 6 exact.                      *)
(* ------------------------------------------------------------------ *)

let self_routed_tests =
  [
    case "the self-routed set of each ancestor scheme" (fun () ->
        let nprocs = 4 in
        let planned =
          match
            (Check.Planner.suggest ~nprocs ~seed:0 ancestor).Check.Planner.plan
          with
          | None -> Error "no plan for ancestor"
          | Some plan ->
            Result.map_error
              (Format.asprintf "%a" Plan.pp_reject)
              (Plan.to_rewrite plan ancestor)
        in
        (* q's two functions are distinct values, even where they
           compute the same map: the condition asks for one [h]. *)
        List.iter
          (fun (name, rw, expected) ->
            match rw with
            | Error e -> Alcotest.failf "%s: %s" name e
            | Ok rw ->
              Alcotest.(check (list string)) name expected rw.Rewrite.self_routed;
              Alcotest.(check bool)
                (name ^ ": self-routed predicates have no send spec")
                true
                (List.for_all
                   (fun (s : Rewrite.send_spec) ->
                     not (List.mem s.ss_pred rw.Rewrite.self_routed))
                   rw.Rewrite.sends))
          [
            ("no_communication", Strategy.no_communication ~nprocs ancestor, [ "anc" ]);
            ("example1", Strategy.example1 ~nprocs ancestor, [ "anc" ]);
            ("planner", planned, [ "anc" ]);
            ("general", Strategy.general ~nprocs ancestor, []);
            ("q", Strategy.hash_q ~nprocs ~ve:[ "Y" ] ~vr:[ "Y" ] ancestor, []);
            ( "example2",
              Strategy.example2 ~nprocs ~partition:(fun _ -> 0) ancestor,
              [] );
            ("example3", Strategy.example3 ~nprocs ancestor, []);
            ("wolfson", Strategy.wolfson_redundant ~nprocs ancestor, []);
            ("tradeoff", Strategy.tradeoff ~nprocs ~alpha:0.5 ancestor, []);
          ]);
    case "derived facts in the EDB: nocomm pools the sequential model"
      (fun () ->
        (* Every processor's fragment holds the EDB's anc facts, so
           their stores overlap there and pooling unions them. *)
        let edb = edb_of_edges (Workload.Graphgen.chain 8) in
        List.iter
          (fun (a, b) ->
            ignore (Database.add_fact edb "anc" (Tuple.of_ints [ a; b ])))
          [ (100, 0); (3, 1) ];
        let model, _ = Seminaive.evaluate ancestor edb in
        let rw = Result.get_ok (Strategy.no_communication ~nprocs:3 ancestor) in
        List.iter
          (fun (name, (r : Session.result)) ->
            Alcotest.check relation_t name (Database.get model "anc")
              (Database.get r.answers "anc"))
          [
            ("sim", Sim_runtime.run rw ~edb);
            ("domains", Domain_runtime.run rw ~edb);
          ]);
  ]

let random_graph_arb =
  QCheck.make
    ~print:(fun (seed, nodes, edges, nprocs) ->
      Printf.sprintf "seed=%d nodes=%d edges=%d nprocs=%d" seed nodes edges
        nprocs)
    QCheck.Gen.(
      let* seed = int_range 0 9999 in
      let* nodes = int_range 2 24 in
      let* edges = int_range 1 60 in
      let* nprocs = int_range 1 4 in
      return (seed, nodes, edges, nprocs))

(* Under no_communication every processor evaluates its guarded program
   in place: the pooled answers are the sequential model, concatenation
   pools each tuple once, and the firings are the sequential ones. *)
let prop_nocomm_in_place =
  QCheck.Test.make ~count:60
    ~name:"nocomm in place: sim and domains pool the model once, exactly"
    random_graph_arb
    (fun (seed, nodes, edges, nprocs) ->
      let graph =
        Workload.Graphgen.random_digraph (Workload.Rng.create ~seed) ~nodes
          ~edges
      in
      let edb = edb_of_edges graph in
      let model, seq = Seminaive.evaluate ancestor edb in
      let expected = Database.get model "anc" in
      let rw = Result.get_ok (Strategy.no_communication ~seed ~nprocs ancestor) in
      List.for_all
        (fun (r : Session.result) ->
          Relation.equal expected (Database.get r.answers "anc")
          && r.stats.Stats.pooled_tuples = Relation.cardinal expected
          && Stats.total_firings r.stats = seq.Seminaive.firings)
        [
          Sim_runtime.run rw ~edb;
          Domain_runtime.run
            ~config:Run_config.(default |> with_domains (Some 2))
            rw ~edb;
        ])

let suites =
  [
    ("strategy", strategy_tests);
    ("stats", stats_tests);
    ("workload", workload_tests);
    ( "self-routed",
      self_routed_tests @ [ QCheck_alcotest.to_alcotest prop_nocomm_in_place ] );
  ]
