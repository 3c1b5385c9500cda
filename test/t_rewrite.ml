(* Tests for the Rewrite transformation and the Sim_runtime executor,
   checking Theorems 1, 2, 4, 5, 6 and the properties claimed for
   Examples 1, 2, 3 and 8. *)

open Datalog
open Pardatalog
open Helpers

let nprocs = 4
let h1 = Hash_fn.modulo ~nprocs ~arity:1 ()

let uniform vars fn = Rewrite.Uniform (Discriminant.make ~vars ~fn)

let example1_rw () =
  Rewrite.make ancestor
    ~policies:[ uniform [ "Y" ] h1; uniform [ "Y" ] h1 ]

let example3_rw () =
  Rewrite.make ancestor
    ~policies:[ uniform [ "X" ] h1; uniform [ "Z" ] h1 ]

let edges = Workload.Graphgen.binary_tree ~depth:4
let edb = edb_of_edges edges
let expected = relation_of_pairs (closure_pairs edges)

let rewrite_tests =
  [
    case "out/in naming round-trips" (fun () ->
        Alcotest.(check string) "out" "anc@out" (Rewrite.out_pred "anc");
        Alcotest.(check string) "in" "anc@in" (Rewrite.in_pred "anc");
        Alcotest.(check string) "strip out" "anc"
          (Rewrite.original_pred "anc@out");
        Alcotest.(check string) "strip in" "anc"
          (Rewrite.original_pred "anc@in");
        Alcotest.(check string) "plain" "anc" (Rewrite.original_pred "anc"));
    case "one program per processor" (fun () ->
        let rw = example3_rw () in
        Alcotest.(check int) "count" nprocs (Array.length rw.Rewrite.programs));
    case "processing rules read @in and write @out" (fun () ->
        let rw = example3_rw () in
        let prog = rw.Rewrite.programs.(0) in
        List.iter
          (fun (r : Rule.t) ->
            Alcotest.(check string) "head" "anc@out" r.head.Atom.pred;
            List.iter
              (fun (a : Atom.t) ->
                Alcotest.(check bool)
                  "body is @in or base" true
                  (String.equal a.pred "anc@in" || String.equal a.pred "par"))
              r.body)
          (Program.rules prog));
    case "uniform policies guard every rule with their own pid" (fun () ->
        let rw = example3_rw () in
        Array.iteri
          (fun pid prog ->
            List.iter
              (fun (r : Rule.t) ->
                match r.Rule.guards with
                | [ g ] -> Alcotest.(check int) "expect" pid g.Rule.gexpect
                | gs ->
                  Alcotest.failf "expected one guard, got %d" (List.length gs))
              (Program.rules prog))
          rw.Rewrite.programs);
    case "local policies are unguarded" (fun () ->
        let rw =
          Result.get_ok (Strategy.wolfson_redundant ~nprocs ancestor)
        in
        let prog = rw.Rewrite.programs.(1) in
        let guard_counts =
          List.map
            (fun (r : Rule.t) -> List.length r.Rule.guards)
            (Program.rules prog)
        in
        (* Exit rule guarded, recursive rule not. *)
        Alcotest.(check (list int)) "guards" [ 1; 0 ] guard_counts);
    case "policy count mismatch raises" (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore (Rewrite.make ancestor ~policies:[ uniform [ "Y" ] h1 ]);
             false
           with Invalid_argument _ -> true));
    case "foreign discriminating variable raises" (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore
               (Rewrite.make ancestor
                  ~policies:[ uniform [ "Y" ] h1; uniform [ "W" ] h1 ]);
             false
           with Invalid_argument _ -> true));
    case "processor-count disagreement raises" (fun () ->
        let h_other = Hash_fn.modulo ~nprocs:3 ~arity:1 () in
        Alcotest.(check bool) "raises" true
          (try
             ignore
               (Rewrite.make ancestor
                  ~policies:[ uniform [ "Y" ] h1; uniform [ "Y" ] h_other ]);
             false
           with Invalid_argument _ -> true));
    case "local policy without derived atoms raises" (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore
               (Rewrite.make ancestor
                  ~policies:
                    [
                      Rewrite.Local
                        {
                          vars = [ "Y" ];
                          fn_for =
                            (fun i -> Hash_fn.constant ~nprocs ~arity:1 i);
                        };
                      uniform [ "Y" ] h1;
                    ]);
             false
           with Invalid_argument _ -> true));
    case "local policy with uncovered sequence raises" (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore
               (Rewrite.make ancestor
                  ~policies:
                    [
                      uniform [ "Y" ] h1;
                      (* X is not in the recursive atom anc(Z,Y). *)
                      Rewrite.Local
                        {
                          vars = [ "X" ];
                          fn_for =
                            (fun i -> Hash_fn.constant ~nprocs ~arity:1 i);
                        };
                    ]);
             false
           with Invalid_argument _ -> true));
    case "example1 fragments nothing (par is shared)" (fun () ->
        let rw = example1_rw () in
        Alcotest.(check (list (pair string bool)))
          "shared"
          [ ("par", false) ]
          rw.Rewrite.fragmented);
    case "example3 fragments par disjointly and completely" (fun () ->
        let rw = example3_rw () in
        Alcotest.(check (list (pair string bool)))
          "fragmented"
          [ ("par", true) ]
          rw.Rewrite.fragmented;
        (* Residency must be a partition: exactly one processor per
           tuple? Example 3 fragments par by h(X) for the exit rule and
           h(Z) (second column) for the recursive rule, so a tuple is
           resident where either fragment claims it. Every tuple must be
           resident somewhere, and the union of residents must cover
           both occurrence fragments. *)
        Relation.iter
          (fun t ->
            let residents =
              List.filter
                (fun pid -> rw.Rewrite.resident pid "par" t)
                (List.init nprocs Fun.id)
            in
            Alcotest.(check bool) "resident somewhere" true (residents <> []);
            Alcotest.(check bool) "at most two residents" true
              (List.length residents <= 2))
          (Database.get edb "par"));
    case "sends of example1 are unicast" (fun () ->
        let rw = example1_rw () in
        List.iter
          (fun (s : Rewrite.send_spec) ->
            Alcotest.(check bool) "unicast" true s.Rewrite.ss_unicast)
          rw.Rewrite.sends);
    case "sends of example2 broadcast" (fun () ->
        let partition t =
          match Tuple.get t 0 with Const.Int i -> i mod nprocs | _ -> 0
        in
        let rw = Result.get_ok (Strategy.example2 ~nprocs ~partition ancestor) in
        List.iter
          (fun (s : Rewrite.send_spec) ->
            Alcotest.(check bool) "broadcast" false s.Rewrite.ss_unicast;
            Alcotest.(check int) "all destinations" nprocs
              (List.length (s.Rewrite.ss_route 0 (Tuple.of_ints [ 1; 2 ]))))
          rw.Rewrite.sends);
  ]

(* --- Runtime checks: Theorems 1/2 on the three Section 4 examples --- *)

let check_example name rw =
  let report = Verify.check rw ~edb in
  Alcotest.(check bool) (name ^ " equal answers (Theorem 1)") true
    report.Verify.equal_answers;
  Alcotest.(check bool) (name ^ " non-redundant (Theorem 2)") true
    report.Verify.non_redundant;
  report

let sim_tests =
  [
    case "example1: correct, non-redundant, no communication" (fun () ->
        let report = check_example "ex1" (example1_rw ()) in
        Alcotest.(check int) "no inter-processor messages" 0
          report.Verify.messages);
    case "example2: correct, non-redundant, broadcasts" (fun () ->
        let partition t =
          match Tuple.get t 0 with Const.Int i -> i mod nprocs | _ -> 0
        in
        let rw = Result.get_ok (Strategy.example2 ~nprocs ~partition ancestor) in
        let report = check_example "ex2" rw in
        Alcotest.(check bool) "communicates" true (report.Verify.messages > 0));
    case "example3: correct, non-redundant, less traffic than example2"
      (fun () ->
        let partition t =
          match Tuple.get t 0 with Const.Int i -> i mod nprocs | _ -> 0
        in
        let rw2 = Result.get_ok (Strategy.example2 ~nprocs ~partition ancestor) in
        let r2 = check_example "ex2" rw2 in
        let r3 = check_example "ex3" (example3_rw ()) in
        Alcotest.(check bool) "fewer messages" true
          (r3.Verify.messages <= r2.Verify.messages));
    case "example3 base fragments are disjoint across processors" (fun () ->
        let rw = example3_rw () in
        let r = Sim_runtime.run rw ~edb in
        let total_resident =
          Stats.total_base_resident r.Sim_runtime.stats
        in
        (* Exit occurrence fragments by h(X), recursive by h(Z): a par
           tuple is resident at h of its first column and h of its
           second column, i.e. at most 2 copies. *)
        let npar = Database.cardinal edb "par" in
        Alcotest.(check bool) "at most 2 copies" true
          (total_resident <= 2 * npar);
        Alcotest.(check bool) "less than full replication" true
          (total_resident < nprocs * npar));
    case "example1 replicates the base relation fully" (fun () ->
        let rw = example1_rw () in
        let r = Sim_runtime.run rw ~edb in
        Alcotest.(check int) "full copies"
          (nprocs * Database.cardinal edb "par")
          (Stats.total_base_resident r.Sim_runtime.stats));
    case "answers match the closure exactly" (fun () ->
        let answers, _ = run_sim (example3_rw ()) edb in
        Alcotest.check relation_t "closure" expected (anc_relation answers));
    case "single processor degenerates to sequential" (fun () ->
        let h = Hash_fn.modulo ~nprocs:1 ~arity:1 () in
        let rw =
          Rewrite.make ancestor
            ~policies:
              [
                Rewrite.Uniform (Discriminant.make ~vars:[ "X" ] ~fn:h);
                Rewrite.Uniform (Discriminant.make ~vars:[ "Z" ] ~fn:h);
              ]
        in
        let report = Verify.check rw ~edb in
        Alcotest.(check bool) "equal" true report.Verify.equal_answers;
        Alcotest.(check int) "exact firings" report.Verify.sequential_firings
          report.Verify.parallel_firings;
        Alcotest.(check int) "no messages" 0 report.Verify.messages);
    case "wolfson scheme is communication-free but may duplicate work"
      (fun () ->
        let rw =
          Result.get_ok (Strategy.wolfson_redundant ~nprocs ancestor)
        in
        let report = Verify.check rw ~edb in
        Alcotest.(check bool) "equal" true report.Verify.equal_answers;
        Alcotest.(check int) "no messages" 0 report.Verify.messages);
    case "example8: general scheme on nonlinear ancestor (Theorems 5/6)"
      (fun () ->
        let rw =
          Result.get_ok
            (Strategy.general ~nprocs Workload.Progs.ancestor_nonlinear)
        in
        let report = Verify.check rw ~edb in
        Alcotest.(check bool) "equal (Theorem 5)" true
          report.Verify.equal_answers;
        Alcotest.(check bool) "non-redundant (Theorem 6)" true
          report.Verify.non_redundant);
    case "general scheme on same-generation" (fun () ->
        let rng = Workload.Rng.create ~seed:11 in
        let sg_edb = Workload.Edb.same_generation rng ~people:24 ~parents_per:2 in
        let rw =
          Result.get_ok
            (Strategy.general ~nprocs Workload.Progs.same_generation)
        in
        let report = Verify.check rw ~edb:sg_edb in
        Alcotest.(check bool) "equal" true report.Verify.equal_answers;
        Alcotest.(check bool) "non-redundant" true report.Verify.non_redundant);
    case "general scheme on mutually recursive predicates" (fun () ->
        let p =
          Parser.program_exn
            "odd(X,Y) :- e(X,Y). even(X,Y) :- odd(X,Z), e(Z,Y).
             odd(X,Y) :- even(X,Z), e(Z,Y)."
        in
        let edb = edb_of_edges ~pred:"e" (Workload.Graphgen.cycle 7) in
        let rw = Result.get_ok (Strategy.general ~nprocs p) in
        let report = Verify.check rw ~edb in
        Alcotest.(check bool) "equal" true report.Verify.equal_answers;
        Alcotest.(check bool) "non-redundant" true report.Verify.non_redundant);
    case "program base facts reach every processor" (fun () ->
        let p =
          Parser.program_exn
            "anc(X,Y) :- par(X,Y). anc(X,Y) :- par(X,Z), anc(Z,Y).
             par(1,2). par(2,3)."
        in
        let rw =
          Rewrite.make p ~policies:[ uniform [ "Y" ] h1; uniform [ "Y" ] h1 ]
        in
        let r = Sim_runtime.run rw ~edb:(Database.create ()) in
        Alcotest.check relation_t "closure"
          (relation_of_pairs [ (1, 2); (2, 3); (1, 3) ])
          (anc_relation r.Sim_runtime.answers));
    case "resend_all changes traffic, not answers" (fun () ->
        let rw = example3_rw () in
        let normal = Sim_runtime.run rw ~edb in
        let noisy =
          Sim_runtime.run
            ~config:Run_config.(default |> with_resend_all true)
            rw ~edb
        in
        Alcotest.check relation_t "same answers"
          (anc_relation normal.Sim_runtime.answers)
          (anc_relation noisy.Sim_runtime.answers);
        Alcotest.(check bool) "more traffic" true
          (Stats.total_messages ~include_self:true noisy.Sim_runtime.stats
           > Stats.total_messages ~include_self:true normal.Sim_runtime.stats));
    case "round budget enforcement" (fun () ->
        let rw = example3_rw () in
        match
          Sim_runtime.run
            ~config:Run_config.(default |> with_max_rounds 1)
            rw ~edb
        with
        | _ -> Alcotest.fail "expected a Round_budget overload"
        | exception
            Overload.Overload { reason = Round_budget { round }; stats } ->
          Alcotest.(check int) "round at abort" 1 round;
          Alcotest.(check int) "partial stats carry the round" 1
            stats.Stats.rounds;
          Alcotest.(check bool) "partial stats carry channel traffic" true
            (Stats.total_messages ~include_self:true stats > 0);
          Alcotest.(check int) "no pooling on abort" 0
            stats.Stats.pooled_tuples);
  ]

let suites = [ ("rewrite", rewrite_tests); ("sim_runtime", sim_tests) ]
