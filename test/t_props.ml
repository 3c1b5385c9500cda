(* Property-based tests (QCheck, registered as alcotest cases). *)

open Datalog
open Pardatalog
open Helpers

let to_alcotest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let edge_list_gen =
  QCheck.Gen.(
    let* nodes = int_range 2 18 in
    let* nedges = int_range 1 40 in
    list_size (return nedges)
      (pair (int_range 0 (nodes - 1)) (int_range 0 (nodes - 1))))

let edge_list =
  QCheck.make
    ~print:(fun es ->
      String.concat "; "
        (List.map (fun (a, b) -> Printf.sprintf "(%d,%d)" a b) es))
    edge_list_gen

(* Integers at and beyond the 62-bit edge of the shifted raw word:
   wider ones are interned into [Const]'s side table, and [min_int + k]
   shifts to the same word as [k]. *)
let wide_ints =
  [ 1 lsl 61; -(1 lsl 61); (1 lsl 61) - 1; max_int; min_int ]

let arbitrary_const_gen =
  QCheck.Gen.(
    oneof
      [
        map Const.int (int_range (-50) 50);
        map
          (fun i -> Const.sym (Printf.sprintf "c%d" i))
          (int_range 0 20);
        map Const.int (oneofl wide_ints);
      ])

(* Constants whose shifted words collide in pairs ([k] and
   [min_int + k], [-1] and [max_int]), plus symbols. *)
let colliding_const_gen =
  QCheck.Gen.(
    oneof
      [
        map Const.int (int_range (-3) 3);
        map (fun k -> Const.int (min_int + k)) (int_range 0 3);
        map Const.int (oneofl wide_ints);
        map (fun i -> Const.sym (Printf.sprintf "c%d" i)) (int_range 0 3);
      ])

let tuple_gen arity =
  QCheck.Gen.(
    map
      (fun cs -> Tuple.of_list cs)
      (list_size (return arity) arbitrary_const_gen))

let tuple_list =
  QCheck.make
    ~print:(fun ts -> String.concat "; " (List.map Tuple.to_string ts))
    QCheck.Gen.(int_range 1 3 >>= fun ar -> list_size (int_range 0 40) (tuple_gen ar))

(* ------------------------------------------------------------------ *)
(* Relation properties                                                 *)
(* ------------------------------------------------------------------ *)

let prop_relation_set_semantics =
  QCheck.Test.make ~count:200 ~name:"relation behaves as a set" tuple_list
    (fun tuples ->
      QCheck.assume (tuples <> []);
      let arity = Tuple.arity (List.hd tuples) in
      let tuples = List.filter (fun t -> Tuple.arity t = arity) tuples in
      let r = Relation.create ~arity () in
      List.iter (fun t -> ignore (Relation.add r t)) tuples;
      let expected = List.sort_uniq Tuple.compare tuples in
      let actual = Relation.sorted_elements r in
      List.length expected = List.length actual
      && List.for_all2 Tuple.equal expected actual)

let prop_relation_lookup_is_filter =
  QCheck.Test.make ~count:200 ~name:"lookup equals a scan filter" tuple_list
    (fun tuples ->
      QCheck.assume (tuples <> []);
      let arity = Tuple.arity (List.hd tuples) in
      let tuples = List.filter (fun t -> Tuple.arity t = arity) tuples in
      QCheck.assume (tuples <> []);
      let r = Relation.create ~arity () in
      List.iter (fun t -> ignore (Relation.add r t)) tuples;
      let probe = List.hd tuples in
      let positions = if arity >= 2 then [| 1 |] else [| 0 |] in
      let key = Tuple.project_key probe positions in
      let looked =
        List.sort Tuple.compare (Relation.lookup r ~positions ~key)
      in
      let scanned =
        List.sort Tuple.compare
          (List.filter
             (fun t ->
               Array.for_all2 Const.equal (Tuple.project_key t positions) key)
             (Relation.to_list r))
      in
      List.length looked = List.length scanned
      && List.for_all2 Tuple.equal looked scanned)

let prop_raw_words_injective =
  QCheck.Test.make ~count:500 ~name:"raw words are equal iff constants are"
    (QCheck.make
       ~print:(fun (a, b) ->
         Printf.sprintf "%s, %s" (Const.to_string a) (Const.to_string b))
       QCheck.Gen.(pair colliding_const_gen colliding_const_gen))
    (fun (a, b) -> (Const.to_raw a = Const.to_raw b) = Const.equal a b)

(* ------------------------------------------------------------------ *)
(* Evaluation properties                                               *)
(* ------------------------------------------------------------------ *)

let prop_naive_equals_seminaive =
  QCheck.Test.make ~count:60 ~name:"naive = semi-naive on transitive closure"
    edge_list (fun edges ->
      let edges = List.filter (fun (a, b) -> a <> b) edges in
      let db = edb_of_edges edges in
      let n = Naive.evaluate ancestor db in
      let s, _ = Seminaive.evaluate ancestor db in
      Database.equal n s)

let prop_closure_correct =
  QCheck.Test.make ~count:60 ~name:"semi-naive computes the real closure"
    edge_list (fun edges ->
      let edges = List.filter (fun (a, b) -> a <> b) edges in
      QCheck.assume (edges <> []);
      let db = edb_of_edges edges in
      let s, _ = Seminaive.evaluate ancestor db in
      Relation.equal
        (relation_of_pairs (closure_pairs edges))
        (anc_relation s))

let prop_nonlinear_equals_linear =
  QCheck.Test.make ~count:40 ~name:"nonlinear ancestor = linear ancestor"
    edge_list (fun edges ->
      let db = edb_of_edges edges in
      let lin, _ = Seminaive.evaluate ancestor db in
      let non, _ = Seminaive.evaluate Workload.Progs.ancestor_nonlinear db in
      Relation.equal (anc_relation lin) (anc_relation non))

(* ------------------------------------------------------------------ *)
(* Parallelization properties: Theorems 1, 2, 4, 5, 6 on random data   *)
(* ------------------------------------------------------------------ *)

let scheme_gen =
  QCheck.Gen.(
    let* nprocs = int_range 1 6 in
    let* seed = int_range 0 1000 in
    let* which = int_range 0 4 in
    return (nprocs, seed, which))

let scheme_arb =
  QCheck.make
    ~print:(fun (n, s, w) -> Printf.sprintf "nprocs=%d seed=%d scheme=%d" n s w)
    scheme_gen

let build_scheme (nprocs, seed, which) =
  match which with
  | 0 -> Strategy.hash_q ~seed ~nprocs ~ve:[ "Y" ] ~vr:[ "Y" ] ancestor
  | 1 -> Strategy.hash_q ~seed ~nprocs ~ve:[ "X" ] ~vr:[ "Z" ] ancestor
  | 2 -> Strategy.no_communication ~seed ~nprocs ancestor
  | 3 -> Strategy.hash_q ~seed ~nprocs ~ve:[ "X"; "Y" ] ~vr:[ "Z"; "Y" ] ancestor
  | _ -> Strategy.general ~seed ~nprocs ancestor

let prop_parallel_equals_sequential =
  QCheck.Test.make ~count:60
    ~name:"Theorems 1/5: parallel answers = sequential answers"
    (QCheck.pair scheme_arb edge_list)
    (fun (scheme, edges) ->
      let edges = List.filter (fun (a, b) -> a <> b) edges in
      let edb = edb_of_edges edges in
      match build_scheme scheme with
      | Error _ -> QCheck.assume_fail ()
      | Ok rw ->
        let report = Verify.check rw ~edb in
        report.Verify.equal_answers)

let prop_uniform_schemes_non_redundant =
  QCheck.Test.make ~count:60
    ~name:"Theorems 2/6: guarded schemes never duplicate firings"
    (QCheck.pair scheme_arb edge_list)
    (fun (scheme, edges) ->
      let edges = List.filter (fun (a, b) -> a <> b) edges in
      let edb = edb_of_edges edges in
      match build_scheme scheme with
      | Error _ -> QCheck.assume_fail ()
      | Ok rw ->
        let report = Verify.check rw ~edb in
        report.Verify.non_redundant)

let prop_tradeoff_correct_for_all_alpha =
  QCheck.Test.make ~count:40
    ~name:"Theorem 4: the R scheme is correct for any alpha"
    (QCheck.triple (QCheck.int_range 1 5) (QCheck.float_range 0.0 1.0)
       edge_list)
    (fun (nprocs, alpha, edges) ->
      let edges = List.filter (fun (a, b) -> a <> b) edges in
      let edb = edb_of_edges edges in
      match Strategy.tradeoff ~nprocs ~alpha ancestor with
      | Error _ -> false
      | Ok rw ->
        let report = Verify.check rw ~edb in
        report.Verify.equal_answers)

let prop_example1_never_communicates =
  QCheck.Test.make ~count:40
    ~name:"Example 1 communicates only at pooling, on any input"
    (QCheck.pair (QCheck.int_range 1 6) edge_list)
    (fun (nprocs, edges) ->
      let edb = edb_of_edges edges in
      match Strategy.hash_q ~nprocs ~ve:[ "Y" ] ~vr:[ "Y" ] ancestor with
      | Error _ -> false
      | Ok rw ->
        let r = Sim_runtime.run rw ~edb in
        Stats.total_messages r.Sim_runtime.stats = 0)

let prop_derived_network_is_respected =
  QCheck.Test.make ~count:30
    ~name:"Section 5: runs use only channels of the derived network"
    (QCheck.pair (QCheck.int_range 0 500) edge_list)
    (fun (seed, edges) ->
      (* Example 6 with the bit-vector function, varying g by seed. *)
      let p = Workload.Progs.example6 in
      let s = Result.get_ok (Analysis.as_sirup p) in
      let derived =
        Result.get_ok
          (Derive.minimal_network
             { sirup = s; ve = [ "X"; "Y" ]; vr = [ "Y"; "Z" ];
               spec = Hash_fn.Bitvec })
      in
      let h = Hash_fn.bitvec ~seed ~arity:2 () in
      let rw =
        Rewrite.make p
          ~policies:
            [
              Rewrite.Uniform (Discriminant.make ~vars:[ "X"; "Y" ] ~fn:h);
              Rewrite.Uniform (Discriminant.make ~vars:[ "Y"; "Z" ] ~fn:h);
            ]
      in
      let edb = Database.create () in
      List.iter
        (fun (a, b) ->
          ignore (Database.add_fact edb "q" (Tuple.of_ints [ a; b ]));
          ignore (Database.add_fact edb "r" (Tuple.of_ints [ b; a ])))
        edges;
      let r = Sim_runtime.run rw ~edb in
      Verify.channels_within r.Sim_runtime.stats derived)

(* ------------------------------------------------------------------ *)
(* Safra properties on random schedules                                *)
(* ------------------------------------------------------------------ *)

(* A single-threaded model of machines + channels + the ring token.
   Random schedule steps; the invariant is that detection happens only
   at (and eventually after) true quiescence. *)
let prop_safra_sound_and_live =
  QCheck.Test.make ~count:200 ~name:"Safra: sound and live on random schedules"
    (QCheck.pair (QCheck.int_range 1 6)
       (QCheck.list_of_size (QCheck.Gen.int_range 0 60)
          (QCheck.pair (QCheck.int_range 0 5) (QCheck.int_range 0 5))))
    (fun (machines, raw_script) ->
      let states = Array.init machines (fun _ -> Safra.create ()) in
      let in_flight = Queue.create () in
      (* Active work counter per machine: a machine with work > 0 is
         active. Delivering a message adds work. *)
      let work = Array.make machines 0 in
      work.(0) <- 1;
      let token_at = ref (-1) in
      (* -1 = not yet launched *)
      let token = ref Safra.initial_token in
      let detected = ref false in
      let truly_quiet () =
        Queue.is_empty in_flight && Array.for_all (fun w -> w = 0) work
      in
      let move_token () =
        if !detected then ()
        else
          match !token_at with
          | -1 ->
            if work.(0) = 0 then begin
              token_at := machines - 1;
              token := Safra.initial_token
            end
          | 0 ->
            if work.(0) = 0 then begin
              (match Safra.evaluate states.(0) !token with
               | `Terminated ->
                 if not (truly_quiet ()) then
                   QCheck.Test.fail_report "premature detection"
                 else detected := true
               | `Try_again -> ());
              if not !detected then begin
                token_at := machines - 1;
                token := Safra.initial_token
              end
            end
          | i ->
            if work.(i) = 0 then begin
              token := Safra.forward states.(i) !token;
              token_at := i - 1
            end
      in
      (* Execute the random script. *)
      List.iter
        (fun (src, dst) ->
          let src = src mod machines and dst = dst mod machines in
          (* A machine only sends while active. *)
          if work.(src) > 0 then begin
            Safra.record_send states.(src);
            Queue.add dst in_flight;
            (* Sometimes finish the sender's work unit. *)
            if (src + dst) mod 2 = 0 then work.(src) <- work.(src) - 1
          end
          else if not (Queue.is_empty in_flight) then begin
            let d = Queue.pop in_flight in
            Safra.record_receive states.(d);
            work.(d) <- work.(d) + 1
          end;
          move_token ())
        raw_script;
      (* Drain: deliver everything, finish all work, circulate. *)
      while not (Queue.is_empty in_flight) do
        let d = Queue.pop in_flight in
        Safra.record_receive states.(d);
        work.(d) <- 0
      done;
      Array.fill work 0 machines 0;
      let guard = ref 0 in
      while (not !detected) && !guard < 10 * (machines + 1) do
        incr guard;
        move_token ()
      done;
      !detected)

let prop_stratified_equals_plain =
  QCheck.Test.make ~count:40
    ~name:"stratified = plain semi-naive (answers and firings)"
    edge_list (fun edges ->
      let program =
        Parser.program_exn
          "tc(X,Y) :- e(X,Y). tc(X,Y) :- e(X,Z), tc(Z,Y).
           twohop(X,Y) :- tc(X,Z), tc(Z,Y)."
      in
      let db = edb_of_edges ~pred:"e" edges in
      let plain_db, plain = Seminaive.evaluate program db in
      let strat_db, strat = Stratified.evaluate program db in
      Database.equal plain_db strat_db
      && plain.Seminaive.firings = strat.Seminaive.firings)

let prop_decompose_exact =
  QCheck.Test.make ~count:40
    ~name:"Dong's decomposition = sequential on component-structured data"
    (QCheck.pair (QCheck.int_range 1 5) edge_list)
    (fun (nprocs, edges) ->
      let edges = List.filter (fun (a, b) -> a <> b) edges in
      (* Duplicate the data as two constant-disjoint copies. *)
      let both =
        edges @ List.map (fun (a, b) -> (a + 1000, b + 1000)) edges
      in
      let db = edb_of_edges both in
      let seq, _ = Seminaive.evaluate ancestor db in
      match Decompose.run ancestor ~nprocs db with
      | Error _ -> false
      | Ok (r, _) ->
        Relation.equal (anc_relation seq)
          (anc_relation r.Pardatalog.Sim_runtime.answers))

let prop_reorder_preserves_everything =
  QCheck.Test.make ~count:40
    ~name:"join reordering preserves answers and firing counts"
    edge_list (fun edges ->
      let db = edb_of_edges edges in
      let plain_db, plain = Seminaive.evaluate ancestor db in
      let opt_db, opt = Seminaive.evaluate ~reorder:true ancestor db in
      Database.equal plain_db opt_db
      && plain.Seminaive.firings = opt.Seminaive.firings)

let props =
  List.map to_alcotest
    [
      prop_stratified_equals_plain;
      prop_decompose_exact;
      prop_reorder_preserves_everything;
      prop_relation_set_semantics;
      prop_relation_lookup_is_filter;
      prop_naive_equals_seminaive;
      prop_closure_correct;
      prop_nonlinear_equals_linear;
      prop_parallel_equals_sequential;
      prop_uniform_schemes_non_redundant;
      prop_tradeoff_correct_for_all_alpha;
      prop_example1_never_communicates;
      prop_derived_network_is_respected;
      prop_safra_sound_and_live;
      prop_raw_words_injective;
    ]

let suites = [ ("properties", props) ]
