(* Shared test utilities: Alcotest testables and small fixtures. *)

open Datalog

let const_t = Alcotest.testable Const.pp Const.equal
let tuple_t = Alcotest.testable Tuple.pp Tuple.equal
let relation_t = Alcotest.testable Relation.pp Relation.equal
let database_t = Alcotest.testable Database.pp Database.equal
let atom_t = Alcotest.testable Atom.pp Atom.equal

let rule_t =
  Alcotest.testable Rule.pp (fun a b ->
      String.equal (Rule.to_string a) (Rule.to_string b))

let case name f = Alcotest.test_case name `Quick f
let slow_case name f = Alcotest.test_case name `Slow f

let edb_of_edges ?(pred = "par") edges =
  let db = Database.create () in
  List.iter
    (fun (a, b) -> ignore (Database.add_fact db pred (Tuple.of_ints [ a; b ])))
    edges;
  db

let ancestor = Workload.Progs.ancestor

(* A [par] cycle over integers at and beyond the 62-bit raw-word edge,
   a small int and a symbol: its ancestor closure has 25 tuples. *)
let wide_cycle_edb () =
  let nodes =
    [ Const.int max_int; Const.int (1 lsl 61); Const.int (-(1 lsl 61));
      Const.int 7; Const.sym "leaf" ]
  in
  let db = Database.create () in
  List.iteri
    (fun i a ->
      let b = List.nth nodes ((i + 1) mod List.length nodes) in
      ignore (Database.add_fact db "par" (Tuple.of_list [ a; b ])))
    nodes;
  db

let relation_of_pairs pairs =
  Relation.of_list ~arity:2 (List.map (fun (a, b) -> Tuple.of_ints [ a; b ]) pairs)

(* The transitive closure of an edge list, computed independently of
   the engines under test (plain Floyd–Warshall reachability). *)
let closure_pairs edges =
  let nodes =
    List.sort_uniq compare (List.concat_map (fun (a, b) -> [ a; b ]) edges)
  in
  let index = Hashtbl.create 16 in
  List.iteri (fun i n -> Hashtbl.add index n i) nodes;
  let n = List.length nodes in
  let reach = Array.make_matrix n n false in
  List.iter
    (fun (a, b) ->
      reach.(Hashtbl.find index a).(Hashtbl.find index b) <- true)
    edges;
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if reach.(i).(k) && reach.(k).(j) then reach.(i).(j) <- true
      done
    done
  done;
  let arr = Array.of_list nodes in
  let acc = ref [] in
  for i = n - 1 downto 0 do
    for j = n - 1 downto 0 do
      if reach.(i).(j) then acc := (arr.(i), arr.(j)) :: !acc
    done
  done;
  !acc

let anc_relation db = Database.get db "anc"

(* ------------------------------------------------------------------ *)
(* Functorized both-runtimes harness.                                  *)
(*                                                                     *)
(* Tests that must hold on either executor are written against         *)
(* [Pardatalog.Runtime.S] and instantiated per runtime (or handed a    *)
(* first-class module and instantiated inline).                        *)
(* ------------------------------------------------------------------ *)

module Harness (R : Pardatalog.Runtime.S) = struct
  include R

  let run ?(config = Pardatalog.Run_config.default) rw ~edb =
    R.run ~config rw ~edb

  (* Does [pred] pooled by this runtime equal the sequential least
     model's relation? *)
  let agrees_with_sequential ?config ~pred program rw ~edb =
    let seq, _ = Seminaive.evaluate program edb in
    let r = run ?config rw ~edb in
    Relation.equal (Database.get seq pred)
      (Database.get r.Pardatalog.Sim_runtime.answers pred)
end

module Sim_harness = Harness (Pardatalog.Runtime.Sim)
module Domain_harness = Harness (Pardatalog.Runtime.Domains)

(* Run a rewrite on the simulated runtime and return the pooled anc
   relation plus stats. *)
let run_sim rw edb =
  let r = Sim_harness.run rw ~edb in
  (r.Pardatalog.Sim_runtime.answers, r.Pardatalog.Sim_runtime.stats)
