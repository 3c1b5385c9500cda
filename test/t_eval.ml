(* Tests for Joiner, Naive and Seminaive. *)

open Datalog
open Helpers

let empty_rels : Joiner.relations =
  { window_of = (fun _ -> None) }

let rels_of db : Joiner.relations =
  Joiner.current_of (fun pred -> Database.find db pred)

let run_rule rule db =
  let plan = Joiner.compile rule in
  let acc = ref [] in
  Joiner.run plan
    ~sources:(Array.make (List.length rule.Rule.body) Joiner.Current)
    (rels_of db)
    ~emit:(fun t -> acc := t :: !acc);
  List.sort Tuple.compare !acc

(* Every plan of a rule enumerates the same substitutions. A case is a
   random safe rule over four predicates of fixed arity — 1 to 3 body
   atoms, constants, repeated variables, an optional hash guard —
   random relations over the values 0..2, a random Old/Delta/Current
   window split per relation and a random source per body atom. *)
type plan_case = {
  pc_rule : Rule.t;
  pc_rels : (string * Tuple.t list * int * int) list;
      (* predicate, tuples in insertion order, w_old, w_cur *)
  pc_sources : Joiner.source array;
}

let plan_preds = [| ("a", 1); ("b", 2); ("c", 2); ("d", 3) |]

let plan_case_gen =
  let open QCheck.Gen in
  let term =
    frequency
      [
        (3, map Term.var (oneofl [ "X"; "Y"; "Z"; "W" ]));
        (1, map Term.int (int_bound 2));
      ]
  in
  let atom =
    let* pred, arity = oneofa plan_preds in
    map (Atom.make pred) (list_repeat arity term)
  in
  let* body = list_size (int_range 1 3) atom in
  let vars = List.sort_uniq String.compare (List.concat_map Atom.vars body) in
  let head_term =
    if vars = [] then map Term.int (int_bound 2)
    else
      frequency
        [ (3, map Term.var (oneofl vars)); (1, map Term.int (int_bound 2)) ]
  in
  let* head = list_size (int_range 1 2) head_term in
  let* guards =
    let* gvars =
      if vars = [] then return [] else list_size (int_bound 2) (oneofl vars)
    in
    let* expect = int_bound 1 in
    let fn args =
      Array.fold_left
        (fun acc c -> match c with Const.Int i -> acc + i | _ -> acc)
        0 args
      land 1
    in
    oneofl [ []; [ Rule.guard ~name:"h" ~vars:gvars ~fn ~expect ] ]
  in
  let rel (pred, arity) =
    let* tuples =
      list_size (int_bound 8)
        (map Tuple.of_ints (list_repeat arity (int_bound 2)))
    in
    let tuples = List.sort_uniq Tuple.compare tuples in
    let* tuples = shuffle_l tuples in
    let k = List.length tuples in
    let* w_old = int_bound k in
    let* w_cur = int_range w_old k in
    return (pred, tuples, w_old, w_cur)
  in
  let* rels = flatten_l (List.map rel (Array.to_list plan_preds)) in
  let* sources =
    list_repeat (List.length body)
      (oneofl [ Joiner.Old; Joiner.Delta; Joiner.Current ])
  in
  return
    {
      pc_rule = Rule.make ~guards (Atom.make "h" head) body;
      pc_rels = rels;
      pc_sources = Array.of_list sources;
    }

let plan_case_arb =
  let show_source = function
    | Joiner.Old -> "Old"
    | Joiner.Delta -> "Delta"
    | Joiner.Current -> "Current"
    | Joiner.Spans _ -> "Spans"
  in
  QCheck.make plan_case_gen ~print:(fun pc ->
      String.concat "\n"
        (Rule.to_string pc.pc_rule
         :: String.concat " "
              (List.map show_source (Array.to_list pc.pc_sources))
         :: List.map
              (fun (pred, tuples, w_old, w_cur) ->
                Printf.sprintf "%s old=%d cur=%d: %s" pred w_old w_cur
                  (String.concat " " (List.map Tuple.to_string tuples)))
              pc.pc_rels))

let plan_emits ?reorder ?first pc =
  let rels =
    List.map
      (fun (pred, tuples, w_old, w_cur) ->
        let arity = List.assoc pred (Array.to_list plan_preds) in
        let rel = Relation.of_list ~arity tuples in
        (pred, { Joiner.w_rel = rel; w_old; w_cur }))
      pc.pc_rels
  in
  let plan = Joiner.compile ?reorder ?first pc.pc_rule in
  let acc = ref [] in
  Joiner.run plan ~sources:pc.pc_sources
    { window_of = (fun pred -> List.assoc_opt pred rels) }
    ~emit:(fun t -> acc := t :: !acc);
  List.sort Tuple.compare !acc

let prop_every_first_same_emits =
  QCheck.Test.make ~count:500
    ~name:
      "every first atom, with and without reorder, emits the textual \
       multiset"
    plan_case_arb
    (fun pc ->
      let textual = plan_emits pc in
      List.for_all
        (fun first ->
          List.for_all
            (fun reorder ->
              List.equal Tuple.equal textual (plan_emits ~reorder ~first pc))
            [ false; true ])
        (List.init (List.length pc.pc_rule.Rule.body) Fun.id))

(* The same case read through [Spans]: each atom's window split in two
   at its midpoint, with a copy of the whole relation between the
   halves that [sp_skip] rejects tuple by tuple. *)
let spans_emits ?first pc =
  let span ?skip rel lo hi =
    { Joiner.sp_rel = rel; sp_lo = lo; sp_hi = hi; sp_skip = skip }
  in
  let rels =
    List.map
      (fun (pred, tuples, w_old, w_cur) ->
        let arity = List.assoc pred (Array.to_list plan_preds) in
        (pred, (Relation.of_list ~arity tuples, w_old, w_cur)))
      pc.pc_rels
  in
  let sources =
    Array.mapi
      (fun i source ->
        let rel, w_old, w_cur =
          List.assoc (List.nth pc.pc_rule.Rule.body i).Atom.pred rels
        in
        let lo, hi =
          match source with
          | Joiner.Old -> (0, w_old)
          | Joiner.Delta -> (w_old, w_cur)
          | Joiner.Current -> (0, w_cur)
          | Joiner.Spans _ -> invalid_arg "spans_emits"
        in
        let mid = (lo + hi) / 2 in
        Joiner.Spans
          [
            span rel lo mid;
            span (Relation.copy rel) 0 (Relation.cardinal rel)
              ~skip:(fun _ -> true);
            span rel mid hi;
          ])
      pc.pc_sources
  in
  let plan = Joiner.compile ?first pc.pc_rule in
  let acc = ref [] in
  Joiner.run plan ~sources empty_rels ~emit:(fun t -> acc := t :: !acc);
  List.sort Tuple.compare !acc

let prop_spans_same_emits =
  QCheck.Test.make ~count:300
    ~name:"split, filtered spans emit what their windows do, any first atom"
    plan_case_arb
    (fun pc ->
      let windows = plan_emits pc in
      List.for_all
        (fun first ->
          List.equal Tuple.equal windows (spans_emits ?first pc))
        (None
        :: List.init (List.length pc.pc_rule.Rule.body) Option.some))

let joiner_tests =
  [
    case "compile rejects unsafe rules" (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore (Joiner.compile (Parser.rule_exn "p(X,W) :- q(X)."));
             false
           with Invalid_argument _ -> true));
    case "single-atom scan" (fun () ->
        let db = edb_of_edges [ (1, 2); (3, 4) ] in
        let out = run_rule (Parser.rule_exn "p(X,Y) :- par(X,Y).") db in
        Alcotest.(check int) "two results" 2 (List.length out));
    case "join on shared variable" (fun () ->
        let db = edb_of_edges [ (1, 2); (2, 3); (2, 4) ] in
        let out = run_rule (Parser.rule_exn "p(X,Y) :- par(X,Z), par(Z,Y).") db in
        Alcotest.(check (list (pair int int)))
          "paths of length 2"
          [ (1, 3); (1, 4) ]
          (List.map
             (fun t ->
               match Tuple.get t 0, Tuple.get t 1 with
               | Const.Int a, Const.Int b -> (a, b)
               | _ -> (-1, -1))
             out));
    case "constants in body filter" (fun () ->
        let db = edb_of_edges [ (1, 2); (3, 4) ] in
        let out = run_rule (Parser.rule_exn "p(Y) :- par(1,Y).") db in
        Alcotest.(check int) "one" 1 (List.length out);
        Alcotest.check tuple_t "value" (Tuple.of_ints [ 2 ]) (List.hd out));
    case "constants in head are emitted" (fun () ->
        let db = edb_of_edges [ (1, 2) ] in
        let out = run_rule (Parser.rule_exn "p(0,Y) :- par(X,Y).") db in
        Alcotest.check tuple_t "value" (Tuple.of_ints [ 0; 2 ]) (List.hd out));
    case "repeated variable within an atom" (fun () ->
        let db = edb_of_edges [ (1, 1); (1, 2); (3, 3) ] in
        let out = run_rule (Parser.rule_exn "p(X) :- par(X,X).") db in
        Alcotest.(check int) "two self loops" 2 (List.length out));
    case "repeated variable across head positions" (fun () ->
        let db = edb_of_edges [ (1, 2) ] in
        let out = run_rule (Parser.rule_exn "p(X,X) :- par(X,Y).") db in
        Alcotest.check tuple_t "doubled" (Tuple.of_ints [ 1; 1 ]) (List.hd out));
    case "empty relation yields nothing" (fun () ->
        let plan = Joiner.compile (Parser.rule_exn "p(X) :- q(X).") in
        let hit = ref false in
        Joiner.run plan ~sources:[| Joiner.Current |] empty_rels
          ~emit:(fun _ -> hit := true);
        Alcotest.(check bool) "no emission" false !hit);
    case "guards filter substitutions" (fun () ->
        let g =
          Rule.guard ~name:"h" ~vars:[ "X" ]
            ~fn:(fun key ->
              match key.(0) with Const.Int i -> i mod 2 | _ -> 0)
            ~expect:0
        in
        let rule =
          Rule.make ~guards:[ g ]
            (Parser.atom_exn "p(X,Y)")
            [ Parser.atom_exn "par(X,Y)" ]
        in
        let db = edb_of_edges [ (1, 2); (2, 3); (4, 5) ] in
        let out = run_rule rule db in
        Alcotest.(check int) "even sources only" 2 (List.length out));
    case "pushdown and post-join guards agree" (fun () ->
        let g =
          Rule.guard ~name:"h" ~vars:[ "Z" ]
            ~fn:(fun key ->
              match key.(0) with Const.Int i -> i mod 3 | _ -> 0)
            ~expect:1
        in
        let rule =
          Rule.make ~guards:[ g ]
            (Parser.atom_exn "p(X,Y)")
            [ Parser.atom_exn "par(X,Z)"; Parser.atom_exn "par(Z,Y)" ]
        in
        let db =
          edb_of_edges [ (1, 2); (2, 3); (3, 4); (4, 7); (7, 8); (0, 1) ]
        in
        let with_push =
          let plan = Joiner.compile ~pushdown:true rule in
          let acc = ref [] in
          Joiner.run plan ~sources:[| Joiner.Current; Joiner.Current |]
            (rels_of db) ~emit:(fun t -> acc := t :: !acc);
          List.sort Tuple.compare !acc
        in
        let without_push =
          let plan = Joiner.compile ~pushdown:false rule in
          let acc = ref [] in
          Joiner.run plan ~sources:[| Joiner.Current; Joiner.Current |]
            (rels_of db) ~emit:(fun t -> acc := t :: !acc);
          List.sort Tuple.compare !acc
        in
        Alcotest.(check int) "same count" (List.length with_push)
          (List.length without_push);
        List.iter2
          (fun a b -> Alcotest.check tuple_t "same tuples" a b)
          with_push without_push);
    case "delta sources see only the delta" (fun () ->
        (* One store, watermarked: position 0 is old, position 1 is
           the delta. *)
        let rel = Relation.create ~arity:2 () in
        ignore (Relation.add rel (Tuple.of_ints [ 1; 2 ]));
        ignore (Relation.add rel (Tuple.of_ints [ 2; 3 ]));
        let rels : Joiner.relations =
          {
            window_of =
              (fun p ->
                if String.equal p "par" then
                  Some { Joiner.w_rel = rel; w_old = 1; w_cur = 2 }
                else None);
          }
        in
        let plan = Joiner.compile (Parser.rule_exn "p(X,Y) :- par(X,Y).") in
        let count src =
          let n = ref 0 in
          Joiner.run plan ~sources:[| src |] rels ~emit:(fun _ -> incr n);
          !n
        in
        Alcotest.(check int) "old" 1 (count Joiner.Old);
        Alcotest.(check int) "delta" 1 (count Joiner.Delta);
        Alcotest.(check int) "current" 2 (count Joiner.Current));
    case "reordered plans enumerate the same substitutions" (fun () ->
        (* Written in a deliberately bad order (cross product first). *)
        let rule = Parser.rule_exn "p(X,Y) :- a(X), b(Y), ab(X,Y)." in
        let db = Database.create () in
        List.iter
          (fun i -> ignore (Database.add_fact db "a" (Tuple.of_ints [ i ])))
          [ 1; 2; 3 ];
        List.iter
          (fun i -> ignore (Database.add_fact db "b" (Tuple.of_ints [ i ])))
          [ 4; 5; 6 ];
        List.iter
          (fun (x, y) ->
            ignore (Database.add_fact db "ab" (Tuple.of_ints [ x; y ])))
          [ (1, 4); (2, 5); (9, 9) ];
        let collect reorder =
          let plan = Joiner.compile ~reorder rule in
          let acc = ref [] in
          Joiner.run plan
            ~sources:(Array.make 3 Joiner.Current)
            (rels_of db)
            ~emit:(fun t -> acc := t :: !acc);
          List.sort Tuple.compare !acc
        in
        let plain = collect false and reordered = collect true in
        Alcotest.(check int) "same count" (List.length plain)
          (List.length reordered);
        List.iter2
          (fun a b -> Alcotest.check tuple_t "same tuples" a b)
          plain reordered);
    case "reordering preserves delta-variant semantics" (fun () ->
        let db = edb_of_edges (Workload.Graphgen.binary_tree ~depth:4) in
        let plain, ps = Seminaive.evaluate ancestor db in
        let opt, os = Seminaive.evaluate ~reorder:true ancestor db in
        Alcotest.check database_t "same model" plain opt;
        Alcotest.(check int) "same firings" ps.Seminaive.firings
          os.Seminaive.firings);
    case "reordering preserves nonlinear evaluation" (fun () ->
        let db = edb_of_edges (Workload.Graphgen.chain 10) in
        let plain, ps =
          Seminaive.evaluate Workload.Progs.ancestor_nonlinear db
        in
        let opt, os =
          Seminaive.evaluate ~reorder:true Workload.Progs.ancestor_nonlinear db
        in
        Alcotest.check database_t "same model" plain opt;
        Alcotest.(check int) "same firings" ps.Seminaive.firings
          os.Seminaive.firings);
    case "a first atom outside the body is rejected" (fun () ->
        let rule = Parser.rule_exn "p(X) :- q(X)." in
        List.iter
          (fun first ->
            Alcotest.(check bool) "raises" true
              (try
                 ignore (Joiner.compile ~first rule);
                 false
               with Invalid_argument _ -> true))
          [ -1; 1 ]);
    QCheck_alcotest.to_alcotest prop_every_first_same_emits;
    case "sources length mismatch raises" (fun () ->
        let plan = Joiner.compile (Parser.rule_exn "p(X) :- q(X).") in
        Alcotest.(check bool) "raises" true
          (try
             Joiner.run plan ~sources:[||] empty_rels ~emit:(fun _ -> ());
             false
           with Invalid_argument _ -> true));
    QCheck_alcotest.to_alcotest prop_spans_same_emits;
  ]

(* Naive and semi-naive evaluation. *)

let check_closure name edges =
  let db = edb_of_edges edges in
  let expected = relation_of_pairs (closure_pairs edges) in
  let ndb = Naive.evaluate ancestor db in
  let sdb, _ = Seminaive.evaluate ancestor db in
  Alcotest.check relation_t (name ^ " naive") expected (anc_relation ndb);
  Alcotest.check relation_t (name ^ " seminaive") expected (anc_relation sdb)

let eval_tests =
  [
    case "closure of a chain" (fun () ->
        check_closure "chain" (Workload.Graphgen.chain 12));
    case "closure of a cycle" (fun () ->
        check_closure "cycle" (Workload.Graphgen.cycle 8));
    case "closure of a tree" (fun () ->
        check_closure "tree" (Workload.Graphgen.binary_tree ~depth:4));
    case "closure of a random graph" (fun () ->
        let rng = Workload.Rng.create ~seed:7 in
        check_closure "random"
          (Workload.Graphgen.random_digraph rng ~nodes:25 ~edges:40));
    case "empty edb yields empty output" (fun () ->
        let db, stats = Seminaive.evaluate ancestor (Database.create ()) in
        Alcotest.(check int) "no anc" 0 (Database.cardinal db "anc");
        Alcotest.(check int) "no firings" 0 stats.Seminaive.firings);
    case "program facts are honoured" (fun () ->
        let p =
          Parser.program_exn
            "anc(X,Y) :- par(X,Y). anc(X,Y) :- par(X,Z), anc(Z,Y).
             par(1,2). par(2,3)."
        in
        let db, _ = Seminaive.evaluate p (Database.create ()) in
        Alcotest.check relation_t "closure"
          (relation_of_pairs [ (1, 2); (2, 3); (1, 3) ])
          (anc_relation db));
    case "input database is not modified" (fun () ->
        let db = edb_of_edges [ (1, 2); (2, 3) ] in
        ignore (Seminaive.evaluate ancestor db);
        Alcotest.(check bool) "no anc in input" false (Database.mem db "anc");
        ignore (Naive.evaluate ancestor db);
        Alcotest.(check bool) "still none" false (Database.mem db "anc"));
    case "seminaive firing count on a chain is exact" (fun () ->
        (* On a chain of n nodes, anc has n(n-1)/2 tuples and each is
           derived exactly once, so firings = |anc|. *)
        let n = 10 in
        let db = edb_of_edges (Workload.Graphgen.chain n) in
        let _, stats = Seminaive.evaluate ancestor db in
        Alcotest.(check int) "firings" (n * (n - 1) / 2)
          stats.Seminaive.firings;
        Alcotest.(check int) "no duplicates" 0
          stats.Seminaive.duplicate_firings);
    case "seminaive firings equal naive-per-substitution on diamonds"
      (fun () ->
        (* Diamond: 0->1, 0->2, 1->3, 2->3 gives two derivations of
           (0,3): firings = 5 exit + ... just check duplicates > 0 and
           new_tuples = |anc|. *)
        let edges = [ (0, 1); (0, 2); (1, 3); (2, 3) ] in
        let db = edb_of_edges edges in
        let out, stats = Seminaive.evaluate ancestor db in
        Alcotest.(check int) "anc size" 5 (Database.cardinal out "anc");
        Alcotest.(check int) "new tuples" 5 stats.Seminaive.new_tuples;
        Alcotest.(check int) "one duplicate derivation" 1
          stats.Seminaive.duplicate_firings;
        Alcotest.(check int) "firings = new + dup" 6 stats.Seminaive.firings);
    case "iterations equal recursion depth" (fun () ->
        let n = 9 in
        let db = edb_of_edges (Workload.Graphgen.chain n) in
        let _, stats = Seminaive.evaluate ancestor db in
        (* Chain of 9 nodes: longest anc path 8 edges; bootstrap gives
           depth-1 tuples, each iteration extends by one, plus a final
           empty-delta-confirming iteration. *)
        Alcotest.(check bool) "about n iterations" true
          (stats.Seminaive.iterations >= n - 2
           && stats.Seminaive.iterations <= n));
    case "nonlinear ancestor agrees with linear" (fun () ->
        let edges = Workload.Graphgen.binary_tree ~depth:4 in
        let db = edb_of_edges edges in
        let lin, _ = Seminaive.evaluate ancestor db in
        let nonlin, _ = Seminaive.evaluate Workload.Progs.ancestor_nonlinear db in
        Alcotest.check relation_t "same closure" (anc_relation lin)
          (anc_relation nonlin));
    case "same-generation agrees with naive" (fun () ->
        let rng = Workload.Rng.create ~seed:5 in
        let db = Workload.Edb.same_generation rng ~people:20 ~parents_per:2 in
        let s, _ = Seminaive.evaluate Workload.Progs.same_generation db in
        let n = Naive.evaluate Workload.Progs.same_generation db in
        Alcotest.check relation_t "sg equal" (Database.get s "sg")
          (Database.get n "sg"));
    case "incremental injection behaves like initial facts" (fun () ->
        let db = edb_of_edges [ (1, 2); (2, 3) ] in
        let engine = Seminaive.create ancestor ~edb:db in
        ignore (Seminaive.bootstrap engine);
        (* Inject an anc tuple as if received from elsewhere. *)
        Alcotest.(check bool) "fresh" true
          (Seminaive.inject engine "anc" (Tuple.of_ints [ 3; 9 ]));
        Alcotest.(check bool) "duplicate refused" false
          (Seminaive.inject engine "anc" (Tuple.of_ints [ 3; 9 ]));
        Seminaive.run_to_fixpoint engine;
        let result = Seminaive.database engine in
        Alcotest.(check bool) "derived via injected tuple" true
          (Relation.mem (anc_relation result) (Tuple.of_ints [ 1; 9 ])));
    case "incremental base insertions extend the fixpoint" (fun () ->
        (* The engine is not restricted to derived predicates: injecting
           a new base tuple after a fixpoint and stepping again performs
           insertion-only incremental maintenance. *)
        let db = edb_of_edges [ (1, 2); (3, 4) ] in
        let engine = Seminaive.create ancestor ~edb:db in
        Seminaive.run_to_fixpoint engine;
        Alcotest.(check int) "two facts derived" 2
          (Relation.cardinal (anc_relation (Seminaive.database engine)));
        (* Now connect the two chains. *)
        Alcotest.(check bool) "new base tuple" true
          (Seminaive.inject engine "par" (Tuple.of_ints [ 2; 3 ]));
        Seminaive.run_to_fixpoint engine;
        let anc = anc_relation (Seminaive.database engine) in
        Alcotest.check relation_t "full closure"
          (relation_of_pairs (closure_pairs [ (1, 2); (2, 3); (3, 4) ]))
          anc);
    case "incremental insertions agree with from-scratch evaluation"
      (fun () ->
        let rng = Workload.Rng.create ~seed:41 in
        let edges = Workload.Graphgen.random_digraph rng ~nodes:20 ~edges:40 in
        let first, rest =
          List.filteri (fun i _ -> i < 20) edges,
          List.filteri (fun i _ -> i >= 20) edges
        in
        let engine = Seminaive.create ancestor ~edb:(edb_of_edges first) in
        Seminaive.run_to_fixpoint engine;
        List.iter
          (fun (a, b) ->
            ignore (Seminaive.inject engine "par" (Tuple.of_ints [ a; b ]));
            Seminaive.run_to_fixpoint engine)
          rest;
        let scratch, _ = Seminaive.evaluate ancestor (edb_of_edges edges) in
        Alcotest.check relation_t "same closure" (anc_relation scratch)
          (anc_relation (Seminaive.database engine)));
    case "bootstrap twice raises" (fun () ->
        let engine = Seminaive.create ancestor ~edb:(edb_of_edges [ (1, 2) ]) in
        ignore (Seminaive.bootstrap engine);
        Alcotest.(check bool) "raises" true
          (try
             ignore (Seminaive.bootstrap engine);
             false
           with Invalid_argument _ -> true));
    case "step before bootstrap raises" (fun () ->
        let engine = Seminaive.create ancestor ~edb:(edb_of_edges [ (1, 2) ]) in
        Alcotest.(check bool) "raises" true
          (try
             ignore (Seminaive.step engine);
             false
           with Invalid_argument _ -> true));
    case "per-rule firing counts split exit and recursion" (fun () ->
        let n = 10 in
        let db = edb_of_edges (Workload.Graphgen.chain n) in
        let engine = Seminaive.create ancestor ~edb:db in
        Seminaive.run_to_fixpoint engine;
        (match Seminaive.per_rule_firings engine with
         | [ (_, exit_f); (_, rec_f) ] ->
           Alcotest.(check int) "exit rule" (n - 1) exit_f;
           Alcotest.(check int) "recursive rule" ((n - 1) * (n - 2) / 2) rec_f
         | _ -> Alcotest.fail "expected two rules");
        Alcotest.(check int) "they sum to the total"
          (Seminaive.stats engine).Seminaive.firings
          (List.fold_left
             (fun acc (_, f) -> acc + f)
             0
             (Seminaive.per_rule_firings engine)));
    case "the delta drives the chain's recursive join" (fun () ->
        (* With par as the outer loop every round re-scans all of par:
           about 3 probes per firing on a chain. The delta, the smaller
           window after the first round, scans first instead. *)
        let db = edb_of_edges (Workload.Graphgen.chain 150) in
        let engine = Seminaive.create ancestor ~edb:db in
        Seminaive.run_to_fixpoint engine;
        let firings = (Seminaive.stats engine).Seminaive.firings in
        let probes = Seminaive.join_probes engine in
        Alcotest.(check int) "firings" (150 * 149 / 2) firings;
        Alcotest.(check bool)
          (Printf.sprintf "%d probes <= 2.1 x %d firings" probes firings)
          true
          (float_of_int probes <= 2.1 *. float_of_int firings));
    case "hot-spot probes stay at or below the textual plan's" (fun () ->
        (* Here the delta outgrows par, so par stays the outer loop;
           234,000 is the probe count of textual-order scanning. *)
        let rng = Workload.Rng.create ~seed:2026 in
        let edges =
          Workload.Graphgen.hotspot rng ~nodes:150 ~edges:1500 ~hubs:2
        in
        let engine = Seminaive.create ancestor ~edb:(edb_of_edges edges) in
        Seminaive.run_to_fixpoint engine;
        let probes = Seminaive.join_probes engine in
        Alcotest.(check bool)
          (Printf.sprintf "%d probes <= 234000" probes)
          true (probes <= 234_000));
    case "a restored engine finishes like an uninterrupted one" (fun () ->
        let rng = Workload.Rng.create ~seed:19 in
        let edb =
          edb_of_edges
            (Workload.Graphgen.random_digraph rng ~nodes:30 ~edges:60)
        in
        List.iter
          (fun program ->
            let whole = Seminaive.create program ~edb in
            Seminaive.run_to_fixpoint whole;
            let ws = Seminaive.stats whole in
            List.iter
              (fun cut ->
                let first = Seminaive.create program ~edb in
                ignore (Seminaive.bootstrap first);
                for _ = 1 to cut do
                  ignore (Seminaive.step first)
                done;
                let fs = Seminaive.stats first in
                let rest =
                  Seminaive.restore program (Seminaive.snapshot first)
                in
                Seminaive.run_to_fixpoint rest;
                let rs = Seminaive.stats rest in
                let at = Printf.sprintf " (cut after %d steps)" cut in
                Alcotest.check database_t ("model" ^ at)
                  (Seminaive.database whole) (Seminaive.database rest);
                Alcotest.(check int) ("firings" ^ at) ws.Seminaive.firings
                  (fs.Seminaive.firings + rs.Seminaive.firings);
                Alcotest.(check int) ("new tuples" ^ at)
                  ws.Seminaive.new_tuples
                  (fs.Seminaive.new_tuples + rs.Seminaive.new_tuples))
              [ 0; 1; 3 ])
          [ ancestor; Workload.Progs.ancestor_nonlinear ]);
    case "naive respects the iteration budget" (fun () ->
        let db = edb_of_edges (Workload.Graphgen.chain 30) in
        Alcotest.(check bool) "raises" true
          (try
             ignore (Naive.evaluate ~max_iterations:2 ancestor db);
             false
           with Failure _ -> true));
  ]

let suites = [ ("joiner", joiner_tests); ("eval", eval_tests) ]
