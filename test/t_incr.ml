(* Incremental maintenance: Stratified.Live and the session runtimes.

   The load-bearing property: applying any interleaving of insert and
   delete batches incrementally yields, after every batch, exactly the
   model a from-scratch sequential evaluation computes on the current
   base facts — on the maintenance core and on every runtime's session
   API. *)

open Datalog
open Helpers

let tc_program =
  Parser.program_exn "tc(X,Y) :- e(X,Y). tc(X,Y) :- e(X,Z), tc(Z,Y)."

let stratified_program =
  Parser.program_exn
    "tc(X,Y) :- e(X,Y). tc(X,Y) :- e(X,Z), tc(Z,Y).
     twohop(X,Y) :- tc(X,Z), tc(Z,Y).
     triangle(X) :- twohop(X,X)."

let nonrec_program =
  Parser.program_exn "pair(X,Y) :- e(X,Y), f(Y). single(X) :- f(X)."

(* The recursive atom first: rederiving a chain tuple reads [tc(X,Z)]
   bound on [X] only. *)
let left_program =
  Parser.program_exn "tc(X,Y) :- e(X,Y). tc(X,Y) :- tc(X,Z), e(Z,Y)."

(* Both body atoms in the stratum: one saved tuple is a round's delta
   at two positions. *)
let nonlinear_program =
  Parser.program_exn "tc(X,Y) :- e(X,Y). tc(X,Y) :- tc(X,Z), tc(Z,Y)."

let t2 a b = Tuple.of_ints [ a; b ]
let t1 a = Tuple.of_ints [ a ]

let batch ops =
  Delta.Batch.of_list
    (List.map
       (fun (op, pred, tuple) ->
         match op with
         | `I -> Delta.Batch.insert pred tuple
         | `D -> Delta.Batch.delete pred tuple)
       ops)

(* The reference: strip derived predicates from the live model's base
   side and re-evaluate from scratch. *)
let scratch_model program live =
  let db = Stratified.Live.database live in
  let base = Database.create () in
  let derived = Program.derived_predicates program in
  List.iter
    (fun pred ->
      if not (List.mem pred derived) then
        match Database.find db pred with
        | Some rel -> Relation.iter (fun t -> ignore (Database.add_fact base pred t)) rel
        | None -> ())
    (Database.predicates db);
  let model, _ = Stratified.evaluate program base in
  model

let check_matches_scratch program live label =
  let expected = scratch_model program live in
  let got = Stratified.Live.database live in
  Alcotest.check database_t label expected got

let live_tests =
  [
    case "insertions grow the closure" (fun () ->
        let live =
          Stratified.Live.create tc_program ~edb:(edb_of_edges ~pred:"e" [ (1, 2) ])
        in
        let c =
          Stratified.Live.apply live (batch [ (`I, "e", t2 2 3) ])
        in
        Alcotest.(check bool) "adds present" true (c.Stratified.Live.c_added <> []);
        Alcotest.(check (list tuple_t)) "closure"
          [ t2 1 2; t2 1 3; t2 2 3 ]
          (Stratified.Live.query live "tc");
        check_matches_scratch tc_program live "after insert");
    case "deletions shrink the closure (DRed)" (fun () ->
        let live =
          Stratified.Live.create tc_program
            ~edb:(edb_of_edges ~pred:"e" [ (1, 2); (2, 3); (3, 4) ])
        in
        let c = Stratified.Live.apply live (batch [ (`D, "e", t2 2 3) ]) in
        Alcotest.(check (list tuple_t)) "closure"
          [ t2 1 2; t2 3 4 ]
          (Stratified.Live.query live "tc");
        Alcotest.(check bool) "overdeleted counted" true
          (c.Stratified.Live.c_summary.Delta.s_overdeleted > 0);
        check_matches_scratch tc_program live "after delete");
    case "rederivation saves tuples with other support" (fun () ->
        (* Deleting e(1,2) must not kill tc(1,3): e(1,3) still holds. *)
        let live =
          Stratified.Live.create tc_program
            ~edb:(edb_of_edges ~pred:"e" [ (1, 2); (2, 3); (1, 3) ])
        in
        let c = Stratified.Live.apply live (batch [ (`D, "e", t2 1 2) ]) in
        Alcotest.(check (list tuple_t)) "closure"
          [ t2 1 3; t2 2 3 ]
          (Stratified.Live.query live "tc");
        Alcotest.(check bool) "rederived counted" true
          (c.Stratified.Live.c_summary.Delta.s_rederived > 0);
        check_matches_scratch tc_program live "after delete");
    case "counting handles non-recursive strata" (fun () ->
        let edb = edb_of_edges ~pred:"e" [ (1, 2); (3, 2) ] in
        ignore (Database.add_fact edb "f" (t1 2));
        let live = Stratified.Live.create nonrec_program ~edb in
        Alcotest.(check (list tuple_t)) "pairs"
          [ t2 1 2; t2 3 2 ]
          (Stratified.Live.query live "pair");
        (* pair(1,2) has one derivation; kill e(1,2), it dies, pair(3,2)
           survives. *)
        ignore (Stratified.Live.apply live (batch [ (`D, "e", t2 1 2) ]));
        Alcotest.(check (list tuple_t)) "pairs after"
          [ t2 3 2 ]
          (Stratified.Live.query live "pair");
        (* Killing f(2) removes everything downstream. *)
        ignore (Stratified.Live.apply live (batch [ (`D, "f", t1 2) ]));
        Alcotest.(check (list tuple_t)) "pairs gone" []
          (Stratified.Live.query live "pair");
        Alcotest.(check (list tuple_t)) "single gone" []
          (Stratified.Live.query live "single");
        check_matches_scratch nonrec_program live "after deletes");
    case "empty batch is a near-no-op" (fun () ->
        let live =
          Stratified.Live.create tc_program
            ~edb:(edb_of_edges ~pred:"e" [ (1, 2); (2, 3) ])
        in
        let c = Stratified.Live.apply live Delta.Batch.empty in
        Alcotest.(check int) "no firings" 0
          c.Stratified.Live.c_summary.Delta.s_firings;
        Alcotest.(check bool) "no change" true
          (c.Stratified.Live.c_added = [] && c.Stratified.Live.c_removed = []));
    case "re-applying a batch normalizes to nothing" (fun () ->
        let live =
          Stratified.Live.create tc_program
            ~edb:(edb_of_edges ~pred:"e" [ (1, 2) ])
        in
        let b = batch [ (`I, "e", t2 2 3); (`D, "e", t2 1 2) ] in
        ignore (Stratified.Live.apply live b);
        let c = Stratified.Live.apply live b in
        Alcotest.(check int) "idempotent firings" 0
          c.Stratified.Live.c_summary.Delta.s_firings;
        Alcotest.(check bool) "idempotent change" true
          (c.Stratified.Live.c_added = [] && c.Stratified.Live.c_removed = []));
    case "delete then reinsert round-trips" (fun () ->
        let edges = [ (1, 2); (2, 3); (3, 4); (4, 1) ] in
        let live =
          Stratified.Live.create tc_program ~edb:(edb_of_edges ~pred:"e" edges)
        in
        let before = Stratified.Live.query live "tc" in
        ignore (Stratified.Live.apply live (batch [ (`D, "e", t2 2 3) ]));
        ignore (Stratified.Live.apply live (batch [ (`I, "e", t2 2 3) ]));
        Alcotest.(check (list tuple_t)) "round-trip" before
          (Stratified.Live.query live "tc");
        check_matches_scratch tc_program live "after round-trip");
    case "last operation per tuple wins within a batch" (fun () ->
        let live =
          Stratified.Live.create tc_program
            ~edb:(edb_of_edges ~pred:"e" [ (1, 2) ])
        in
        ignore
          (Stratified.Live.apply live
             (batch [ (`I, "e", t2 2 3); (`D, "e", t2 2 3) ]));
        Alcotest.(check (list tuple_t)) "no 2->3" [ t2 1 2 ]
          (Stratified.Live.query live "tc");
        ignore
          (Stratified.Live.apply live
             (batch [ (`D, "e", t2 1 2); (`I, "e", t2 1 2) ]));
        Alcotest.(check (list tuple_t)) "1->2 kept" [ t2 1 2 ]
          (Stratified.Live.query live "tc"));
    case "program facts survive base deletions (external support)" (fun () ->
        let p =
          Parser.program_exn
            "anc(X,Y) :- par(X,Y). anc(X,Y) :- par(X,Z), anc(Z,Y). anc(7,8)."
        in
        let live =
          Stratified.Live.create p ~edb:(edb_of_edges [ (1, 2) ])
        in
        ignore (Stratified.Live.apply live (batch [ (`D, "par", t2 1 2) ]));
        Alcotest.(check (list tuple_t)) "fact survives" [ t2 7 8 ]
          (Stratified.Live.query live "anc"));
    case "rejects updates on derived predicates" (fun () ->
        let live =
          Stratified.Live.create tc_program
            ~edb:(edb_of_edges ~pred:"e" [ (1, 2) ])
        in
        Alcotest.(check bool) "raises" true
          (try
             ignore (Stratified.Live.apply live (batch [ (`I, "tc", t2 5 6) ]));
             false
           with Invalid_argument _ -> true));
    case "multi-stratum program stays consistent across a mixed stream"
      (fun () ->
        let rng = Workload.Rng.create ~seed:42 in
        let edges = Workload.Graphgen.random_digraph rng ~nodes:12 ~edges:30 in
        let live =
          Stratified.Live.create stratified_program
            ~edb:(edb_of_edges ~pred:"e" edges)
        in
        let edges = ref edges in
        for i = 1 to 20 do
          let b =
            if i mod 3 = 0 && !edges <> [] then begin
              let victim = List.nth !edges (Workload.Rng.int rng (List.length !edges)) in
              edges := List.filter (fun e -> e <> victim) !edges;
              let a, b = victim in
              batch [ (`D, "e", t2 a b) ]
            end
            else begin
              let a = Workload.Rng.int rng 12 and b = Workload.Rng.int rng 12 in
              if not (List.mem (a, b) !edges) then edges := (a, b) :: !edges;
              batch [ (`I, "e", t2 a b) ]
            end
          in
          ignore (Stratified.Live.apply live b);
          check_matches_scratch stratified_program live
            (Printf.sprintf "step %d" i)
        done);
    case "batches and totals accumulate" (fun () ->
        let live =
          Stratified.Live.create tc_program
            ~edb:(edb_of_edges ~pred:"e" [ (1, 2) ])
        in
        ignore (Stratified.Live.apply live (batch [ (`I, "e", t2 2 3) ]));
        ignore (Stratified.Live.apply live (batch [ (`D, "e", t2 1 2) ]));
        Alcotest.(check int) "batches" 2 (Stratified.Live.batches live);
        let tot = Stratified.Live.totals live in
        Alcotest.(check bool) "inserted" true (tot.Delta.s_inserted > 0);
        Alcotest.(check bool) "deleted" true (tot.Delta.s_deleted > 0));
    case "session stats serialize as schema 4 with the incr counters"
      (fun () ->
        let rw =
          match
            Pardatalog.Strategy.general ~nprocs:2 Workload.Progs.ancestor
          with
          | Ok rw -> rw
          | Error e -> failwith e
        in
        let s =
          Pardatalog.Sim_runtime.open_session rw
            ~edb:(edb_of_edges [ (1, 2); (2, 3) ])
        in
        ignore
          (Pardatalog.Session.apply s
             (Pardatalog.Update_batch.of_list
                [ Delta.Batch.insert "par" (t2 3 4) ]));
        let r = Pardatalog.Session.close s in
        let json = Pardatalog.Stats.to_json r.Pardatalog.Session.stats in
        let contains needle =
          let n = String.length needle and m = String.length json in
          let rec go i =
            i + n <= m && (String.sub json i n = needle || go (i + 1))
          in
          go 0
        in
        Alcotest.(check bool) "schema bumped" true (contains "\"schema\":5");
        Alcotest.(check bool) "one batch applied" true
          (contains "\"incr\":{\"batches_applied\":1");
        Alcotest.(check int) "batches counted" 1
          r.Pardatalog.Session.stats.Pardatalog.Stats.incr
            .Pardatalog.Stats.batches_applied;
        (* A one-shot run keeps the all-zero object — additive schema. *)
        let one_shot =
          Pardatalog.Sim_runtime.run rw ~edb:(edb_of_edges [ (1, 2) ])
        in
        Alcotest.(check bool) "one-shot runs stay at no_incr" true
          (one_shot.Pardatalog.Sim_runtime.stats.Pardatalog.Stats.incr
           = Pardatalog.Stats.no_incr));
    case "a one-edge toggle fires under half of a from-scratch run" (fun () ->
        (* Insert a fresh source edge, then retract it: insertion
           propagation and DRed deletion both run, and the model
           returns to its start state. *)
        let rw =
          Result.get_ok
            (Pardatalog.Strategy.general ~seed:0 ~nprocs:4
               Workload.Progs.ancestor)
        in
        let rng = Workload.Rng.create ~seed:2026 in
        List.iter
          (fun (name, edges) ->
            let edb = edb_of_edges edges in
            let max_node =
              List.fold_left (fun m (a, b) -> max m (max a b)) 0 edges
            in
            let fresh = t2 (max_node + 1) (fst (List.hd edges)) in
            let toggle =
              List.map
                (fun op -> Pardatalog.Update_batch.of_list [ op "par" fresh ])
                [ Delta.Batch.insert; Delta.Batch.delete ]
            in
            let full =
              Pardatalog.Stats.total_firings
                (Pardatalog.Sim_runtime.run rw ~edb).Pardatalog.Sim_runtime.stats
            in
            let s = Pardatalog.Sim_runtime.open_session rw ~edb in
            for round = 1 to 2 do
              let fired =
                List.fold_left
                  (fun n b ->
                    let o = Pardatalog.Session.apply s b in
                    n + o.Pardatalog.Session.oc_summary.Delta.s_firings)
                  0 toggle
              in
              Alcotest.(check bool)
                (Printf.sprintf "%s, toggle %d: %d firings vs %d from scratch"
                   name round fired full)
                true
                (fired * 2 < full)
            done;
            ignore (Pardatalog.Session.close s))
          [
            ("chain-200", Workload.Graphgen.chain 200);
            ("grid-16", Workload.Graphgen.grid ~rows:16 ~cols:16);
            ( "hotspot-50x220",
              Workload.Graphgen.hotspot rng ~nodes:50 ~edges:220 ~hubs:2 );
          ]);
    case "a seeded mixed stream keeps its exact per-batch counters" (fun () ->
        (* [inserted; deleted; overdeleted; rederived; firings] of every
           batch. Any change to the substitutions the maintenance join
           enumerates, or to the reads it enumerates them under, moves
           one of these numbers. *)
        let summaries program ~unary =
          let rng = Workload.Rng.create ~seed:2026 in
          let random_fact () =
            if unary && Workload.Rng.int rng 3 = 0 then
              ("f", t1 (Workload.Rng.int rng 9))
            else ("e", t2 (Workload.Rng.int rng 9) (Workload.Rng.int rng 9))
          in
          let edb = Database.create () in
          for _ = 1 to 18 do
            let pred, t = random_fact () in
            ignore (Database.add_fact edb pred t)
          done;
          let live = Stratified.Live.create program ~edb in
          List.init 12 (fun _ ->
              let ops =
                List.init (1 + Workload.Rng.int rng 5) (fun _ ->
                    let pred, t = random_fact () in
                    ((if Workload.Rng.int rng 5 < 2 then `I else `D), pred, t))
              in
              let s =
                (Stratified.Live.apply live (batch ops)).Stratified.Live.c_summary
              in
              Delta.
                [ s.s_inserted; s.s_deleted; s.s_overdeleted; s.s_rederived;
                  s.s_firings ])
        in
        List.iter
          (fun (name, program, unary, expected) ->
            Alcotest.(check (list (list int))) name expected
              (summaries program ~unary))
          [
            ( "tc", tc_program, false,
              [
                [6; 0; 0; 0; 16];
                [0; 2; 24; 23; 78];
                [1; 0; 0; 0; 8];
                [10; 0; 0; 0; 41];
                [7; 8; 56; 49; 196];
                [0; 0; 0; 0; 0];
                [0; 7; 54; 48; 169];
                [0; 0; 0; 0; 0];
                [2; 0; 0; 0; 8];
                [2; 0; 0; 0; 14];
                [1; 1; 1; 1; 9];
                [1; 0; 0; 0; 7];
              ] );
            ( "stratified", stratified_program, false,
              [
                [13; 0; 0; 0; 72];
                [0; 3; 24; 23; 89];
                [1; 0; 0; 0; 8];
                [19; 0; 0; 0; 172];
                [14; 17; 56; 49; 373];
                [0; 0; 0; 0; 0];
                [0; 14; 54; 48; 254];
                [0; 0; 0; 0; 0];
                [2; 0; 0; 0; 8];
                [2; 0; 0; 0; 14];
                [1; 1; 1; 1; 9];
                [1; 0; 0; 0; 7];
              ] );
            ( "nonrec", nonrec_program, true,
              [
                [0; 0; 0; 0; 0];
                [5; 0; 0; 0; 4];
                [0; 1; 0; 0; 0];
                [0; 5; 0; 0; 4];
                [0; 0; 0; 0; 0];
                [5; 0; 0; 0; 2];
                [0; 0; 0; 0; 0];
                [0; 5; 0; 0; 4];
                [4; 0; 0; 0; 3];
                [0; 0; 0; 0; 0];
                [3; 1; 0; 0; 2];
                [0; 5; 0; 0; 2];
              ] );
            ( "left-linear", left_program, false,
              [
                [6; 0; 0; 0; 17];
                [0; 2; 24; 23; 72];
                [1; 0; 0; 0; 1];
                [10; 0; 0; 0; 29];
                [7; 8; 56; 49; 191];
                [0; 0; 0; 0; 0];
                [0; 7; 54; 48; 166];
                [0; 0; 0; 0; 0];
                [2; 0; 0; 0; 10];
                [2; 0; 0; 0; 2];
                [1; 1; 1; 1; 11];
                [1; 0; 0; 0; 9];
              ] );
            ( "non-linear", nonlinear_program, false,
              [
                [6; 0; 0; 0; 56];
                [0; 2; 24; 23; 195];
                [1; 0; 0; 0; 1];
                [10; 0; 0; 0; 132];
                [7; 8; 56; 49; 814];
                [0; 0; 0; 0; 0];
                [0; 7; 54; 48; 709];
                [0; 0; 0; 0; 0];
                [2; 0; 0; 0; 2];
                [2; 0; 0; 0; 2];
                [1; 1; 1; 1; 3];
                [1; 0; 0; 0; 1];
              ] );
          ]);
    case "a wrong-arity update rejects its whole batch before anything lands"
      (fun () ->
        (* The deletion ahead of the bad insert must not reach the
           model, or the session and its oracle part ways for good. *)
        let bad =
          [
            Delta.Batch.delete "par" (t2 1 2);
            Delta.Batch.insert "par" (Tuple.of_ints [ 7; 8; 9 ]);
          ]
        in
        let edb () = edb_of_edges [ (1, 2); (2, 3) ] in
        let rejects f =
          match f () with
          | _ -> false
          | exception Invalid_argument _ -> true
        in
        let live = Stratified.Live.create Workload.Progs.ancestor ~edb:(edb ()) in
        let before = Stratified.Live.database live in
        Alcotest.(check bool) "Live raises" true
          (rejects (fun () ->
               Stratified.Live.apply live (Delta.Batch.of_list bad)));
        Alcotest.(check int) "Live batches" 0 (Stratified.Live.batches live);
        Alcotest.check database_t "Live model" before
          (Stratified.Live.database live);
        Alcotest.(check int) "Live anc" 3
          (List.length (Stratified.Live.query live "anc"));
        ignore (Stratified.Live.apply live (batch [ (`D, "par", t2 1 2) ]));
        Alcotest.(check (list tuple_t)) "Live anc after the good batch"
          [ t2 2 3 ]
          (Stratified.Live.query live "anc");
        let rw =
          Result.get_ok
            (Pardatalog.Strategy.general ~seed:0 ~nprocs:2
               Workload.Progs.ancestor)
        in
        List.iter
          (fun (name, open_session) ->
            let s : Pardatalog.Session.t = open_session ~edb:(edb ()) in
            let before = Pardatalog.Session.model s in
            Alcotest.(check bool) (name ^ " raises") true
              (rejects (fun () ->
                   Pardatalog.Session.apply s (Pardatalog.Update_batch.of_list bad)));
            Alcotest.check database_t (name ^ " model") before
              (Pardatalog.Session.model s);
            Alcotest.(check int) (name ^ " anc") 3
              (List.length (Pardatalog.Session.query s "anc"));
            ignore
              (Pardatalog.Session.apply s
                 (Pardatalog.Update_batch.of_list
                    [ Delta.Batch.delete "par" (t2 1 2) ]));
            Alcotest.(check (list tuple_t)) (name ^ " anc after the good batch")
              [ t2 2 3 ]
              (Pardatalog.Session.query s "anc");
            let r = Pardatalog.Session.close s in
            Alcotest.(check int) (name ^ " batches") 1
              r.Pardatalog.Session.stats.Pardatalog.Stats.incr
                .Pardatalog.Stats.batches_applied)
          [
            ("sim", Pardatalog.Sim_runtime.open_session rw);
            ("domains", Pardatalog.Domain_runtime.open_session rw);
          ]);
  ]

(* ------------------------------------------------------------------ *)
(* Property: random programs x random insert/delete interleavings.     *)
(* ------------------------------------------------------------------ *)

let programs =
  [| tc_program; stratified_program; nonrec_program; left_program;
     nonlinear_program |]

let stream_arb =
  QCheck.make
    ~print:(fun (pi, seed, steps) ->
      Printf.sprintf "program=%d seed=%d steps=%d" pi seed steps)
    QCheck.Gen.(
      let* pi = int_range 0 (Array.length programs - 1) in
      let* seed = int_range 0 9999 in
      let* steps = int_range 1 12 in
      return (pi, seed, steps))

(* Drive a random update stream against Live; after every batch the
   model must equal the from-scratch evaluation. *)
let random_stream pi seed steps =
  let program = programs.(pi) in
  let rng = Workload.Rng.create ~seed in
  let edb = Database.create () in
  let universe = 8 in
  let random_fact () =
    if pi = 2 && Workload.Rng.int rng 3 = 0 then
      ("f", t1 (Workload.Rng.int rng universe))
    else
      ("e", t2 (Workload.Rng.int rng universe) (Workload.Rng.int rng universe))
  in
  for _ = 1 to 10 do
    let pred, t = random_fact () in
    ignore (Database.add_fact edb pred t)
  done;
  if pi = 2 then
    for _ = 1 to 4 do
      ignore (Database.add_fact edb "f" (t1 (Workload.Rng.int rng universe)))
    done;
  let live = Stratified.Live.create program ~edb in
  let ok = ref true in
  for _ = 1 to steps do
    let nops = 1 + Workload.Rng.int rng 4 in
    let ops =
      List.init nops (fun _ ->
          let pred, t = random_fact () in
          if Workload.Rng.int rng 2 = 0 then (`I, pred, t) else (`D, pred, t))
    in
    ignore (Stratified.Live.apply live (batch ops));
    let expected = scratch_model program live in
    if not (Database.equal expected (Stratified.Live.database live)) then
      ok := false
  done;
  !ok

let prop_live_equals_scratch =
  QCheck.Test.make ~count:120
    ~name:"live maintenance = from-scratch after every batch" stream_arb
    (fun (pi, seed, steps) -> random_stream pi seed steps)

(* ------------------------------------------------------------------ *)
(* Runtime sessions: the same property through the session-handle API. *)
(* The sim and domain variants live in [suites]; the net variant forks *)
(* worker processes, so it is exported separately as [net_suites] and  *)
(* registered before any suite spawns a domain.                        *)
(* ------------------------------------------------------------------ *)

let anc_rw ~seed ~nprocs =
  match
    Pardatalog.Strategy.general ~seed ~nprocs Workload.Progs.ancestor
  with
  | Ok rw -> rw
  | Error e -> failwith e

let expected_closure edges =
  List.sort Tuple.compare (List.map (fun (a, b) -> t2 a b) (closure_pairs edges))

(* Drive a random insert/delete stream through a runtime session;
   after every batch (and after [close]) the visible "anc" relation
   must equal an independent closure oracle over the tracked base
   edges. *)
let session_stream ~open_session seed steps =
  let rng = Workload.Rng.create ~seed in
  let universe = 7 in
  let random_edge () =
    (Workload.Rng.int rng universe, Workload.Rng.int rng universe)
  in
  let edges = ref [] in
  for _ = 1 to 8 do
    let e = random_edge () in
    if not (List.mem e !edges) then edges := e :: !edges
  done;
  let s = open_session (edb_of_edges !edges) in
  let ok = ref true in
  let check () =
    if
      not
        (List.equal Tuple.equal (expected_closure !edges)
           (Pardatalog.Session.query s "anc"))
    then ok := false
  in
  check ();
  for _ = 1 to steps do
    let nops = 1 + Workload.Rng.int rng 3 in
    let ops =
      List.init nops (fun _ ->
          let ((a, b) as e) = random_edge () in
          if Workload.Rng.int rng 2 = 0 then begin
            if not (List.mem e !edges) then edges := e :: !edges;
            Delta.Batch.insert "par" (t2 a b)
          end
          else begin
            edges := List.filter (fun x -> x <> e) !edges;
            Delta.Batch.delete "par" (t2 a b)
          end)
    in
    ignore (Pardatalog.Session.apply s (Pardatalog.Update_batch.of_list ops));
    check ()
  done;
  let r = Pardatalog.Session.close s in
  let final =
    match Database.find r.Pardatalog.Session.answers "anc" with
    | Some rel -> Relation.sorted_elements rel
    | None -> []
  in
  if not (List.equal Tuple.equal (expected_closure !edges) final) then
    ok := false;
  (* A closed session refuses further work. *)
  (match Pardatalog.Session.apply s Pardatalog.Update_batch.empty with
   | _ -> ok := false
   | exception Pardatalog.Session.Closed _ -> ());
  !ok

let session_arb =
  QCheck.make
    ~print:(fun (seed, steps) -> Printf.sprintf "seed=%d steps=%d" seed steps)
    QCheck.Gen.(
      let* seed = int_range 0 9999 in
      let* steps = int_range 1 8 in
      return (seed, steps))

let prop_sim_session =
  QCheck.Test.make ~count:40
    ~name:"sim session = closure oracle after every batch" session_arb
    (fun (seed, steps) ->
      session_stream
        ~open_session:(fun edb ->
          Pardatalog.Sim_runtime.open_session (anc_rw ~seed ~nprocs:3) ~edb)
        seed steps)

let prop_sim_session_faults =
  QCheck.Test.make ~count:20
    ~name:"sim session under a random fault plan = closure oracle"
    session_arb
    (fun (seed, steps) ->
      let plan =
        Pardatalog.Fault.make ~seed ~drop:0.2 ~dup:0.1 ~delay:0.1
          ~checkpoint_every:3 ()
      in
      let config =
        Pardatalog.Run_config.(
          default |> with_fault plan |> with_max_rounds 50_000)
      in
      session_stream
        ~open_session:(fun edb ->
          Pardatalog.Sim_runtime.open_session ~config
            (anc_rw ~seed ~nprocs:3) ~edb)
        seed steps)

let prop_domain_session =
  QCheck.Test.make ~count:12
    ~name:"domain session = closure oracle after every batch" session_arb
    (fun (seed, steps) ->
      session_stream
        ~open_session:(fun edb ->
          Pardatalog.Domain_runtime.open_session (anc_rw ~seed ~nprocs:3) ~edb)
        seed (min steps 5))

(* Sessions under a no-communication plan, whose derived tuples stay
   at the processor that derived them, under their original name: a
   sim and a domain session take the same random batches as a
   [Stratified.Live] oracle and must match it after every batch. *)
let nocomm_rw ~seed ~nprocs =
  match
    Pardatalog.Strategy.no_communication ~seed ~nprocs Workload.Progs.ancestor
  with
  | Ok rw -> rw
  | Error e -> failwith e

let prop_nocomm_sessions =
  QCheck.Test.make ~count:15
    ~name:"nocomm sim and domain sessions = live oracle after every batch"
    session_arb
    (fun (seed, steps) ->
      let rng = Workload.Rng.create ~seed in
      let universe = 7 in
      let random_edge () =
        (Workload.Rng.int rng universe, Workload.Rng.int rng universe)
      in
      let edb = edb_of_edges (List.init 8 (fun _ -> random_edge ())) in
      let oracle = Stratified.Live.create Workload.Progs.ancestor ~edb in
      let sessions =
        [
          Pardatalog.Sim_runtime.open_session (nocomm_rw ~seed ~nprocs:3) ~edb;
          Pardatalog.Domain_runtime.open_session (nocomm_rw ~seed ~nprocs:3)
            ~edb;
        ]
      in
      let agree () =
        let expected =
          match Database.find (Stratified.Live.database oracle) "anc" with
          | Some rel -> Relation.sorted_elements rel
          | None -> []
        in
        List.for_all
          (fun s ->
            List.equal Tuple.equal expected (Pardatalog.Session.query s "anc"))
          sessions
      in
      let ok = ref (agree ()) in
      for _ = 1 to min steps 5 do
        let ops =
          List.init
            (1 + Workload.Rng.int rng 3)
            (fun _ ->
              let a, b = random_edge () in
              if Workload.Rng.int rng 2 = 0 then Delta.Batch.insert "par" (t2 a b)
              else Delta.Batch.delete "par" (t2 a b))
        in
        ignore (Stratified.Live.apply oracle (Delta.Batch.of_list ops));
        List.iter
          (fun s ->
            ignore
              (Pardatalog.Session.apply s (Pardatalog.Update_batch.of_list ops)))
          sessions;
        if not (agree ()) then ok := false
      done;
      List.iter (fun s -> ignore (Pardatalog.Session.close s)) sessions;
      !ok)

(* --- net runtime: real forked workers, registered before domains --- *)

let anc_text = "anc(X,Y) :- par(X,Y).\nanc(X,Y) :- anc(X,Z), par(Z,Y).\n"
let anc_spec = Net.Wire.Spec_q { ve = [ "Y" ]; vr = [ "Y" ] }

let net_rw ~seed ~nprocs =
  match
    Pardatalog.Strategy.hash_q ~seed ~nprocs ~ve:[ "Y" ] ~vr:[ "Y" ]
      (Parser.program_exn anc_text)
  with
  | Ok rw -> rw
  | Error e -> failwith e

let prop_net_session =
  QCheck.Test.make ~count:5
    ~name:"net session = closure oracle after every batch" session_arb
    (fun (seed, steps) ->
      session_stream
        ~open_session:(fun edb ->
          Net.Net_runtime.open_session ~config:Pardatalog.Run_config.default
            ~program:anc_text ~spec:anc_spec ~seed ~procs:2
            ~spawn:Net.Net_runtime.Fork
            (net_rw ~seed ~nprocs:2)
            ~edb)
        seed (min steps 3))

let net_suites =
  [
    ( "incr-net-session",
      List.map QCheck_alcotest.to_alcotest [ prop_net_session ] );
  ]

let suites =
  [
    ("incr-live", live_tests);
    ( "incr-props",
      List.map QCheck_alcotest.to_alcotest
        [
          prop_live_equals_scratch; prop_sim_session; prop_sim_session_faults;
          prop_domain_session; prop_nocomm_sessions;
        ] );
  ]
