(* The workloads and the inputs they generate from the seed.

   Every workload evaluates the linear ancestor program, and every
   workload runs both halves of the harness: the batch cells (the
   sequential engine and the four parallel runtime configurations) and
   a datalogd daemon serving the same model to a closed-loop client
   mix. The workloads differ in the graph, which decides which layer
   dominates, and in how many client cycles a round of the run holds,
   which decides how a run is split between the halves.

   The seed only shapes the inputs: it relabels the chain nodes with a
   seeded permutation, seeds the hot-spot generator, and orders each
   client's operation cycle. Hash seeds of the schemes stay 0. *)

open Datalog

let program_text = "anc(X,Y) :- par(X,Y).\nanc(X,Y) :- par(X,Z), anc(Z,Y).\n"

type shape = Chain of int | Hotspot of { nodes : int; edges : int; hubs : int }

type t = {
  name : string;
  shape : shape;
  min_reps : int;  (* timed rounds, at least *)
  cycles_per_round : int;  (* client cycles per load burst, one burst a round *)
}

(* Why each workload was chosen is recorded in BENCHMARK.json and
   README.md. *)
let all ~smoke =
  let min_reps n = if smoke then 1 else n in
  [
    {
      name = "chain-deep";
      shape = Chain (if smoke then 60 else 300);
      min_reps = min_reps 7;
      cycles_per_round = 1;
    };
    {
      name = "hotspot-dedup";
      shape =
        (if smoke then Hotspot { nodes = 40; edges = 200; hubs = 2 }
         else Hotspot { nodes = 150; edges = 1500; hubs = 2 });
      min_reps = min_reps 11;
      cycles_per_round = 1;
    };
    {
      name = "serve-mixed";
      shape = Chain (if smoke then 60 else 200);
      min_reps = min_reps 7;
      cycles_per_round = 3;
    };
  ]

let find ~smoke name = List.find_opt (fun w -> w.name = name) (all ~smoke)

type prepared = {
  w : t;
  nodes : int;
  facts_text : string;
  model : Relation.t;  (* the sequential answer for anc *)
  target : int;  (* the node each client's toggled edge points at *)
  toggle_added : int;  (* model tuples one toggled edge adds: par + anc *)
}

let facts_of edges =
  let buf = Buffer.create (List.length edges * 14) in
  List.iter (fun (a, b) -> Buffer.add_string buf (Printf.sprintf "par(%d,%d).\n" a b)) edges;
  Buffer.contents buf

let program = Parser.program_exn program_text

let anc_of edges =
  let db, _ = Seminaive.evaluate program (Workload.Edb.of_edges edges) in
  Database.get db "anc"

(* A source node no edge of the graph touches, one per client. *)
let fresh_source p ~client = p.nodes + 1 + client

let prepare w ~seed =
  let rng = Workload.Rng.create ~seed in
  let nodes, edges, target =
    match w.shape with
    | Chain n ->
      let perm = Array.init n Fun.id in
      Workload.Rng.shuffle rng perm;
      (n, List.map (fun (a, b) -> (perm.(a), perm.(b))) (Workload.Graphgen.chain n), perm.(0))
    | Hotspot { nodes; edges; hubs } ->
      (* Hub 0 reaches almost every node, so a toggled edge into it
         touches most of the model. *)
      (nodes, Workload.Graphgen.hotspot rng ~nodes ~edges ~hubs, 0)
  in
  let model = anc_of edges in
  let p =
    { w; nodes; facts_text = facts_of edges; model; target; toggle_added = 0 }
  in
  let with_edge = anc_of ((fresh_source p ~client:0, target) :: edges) in
  { p with toggle_added = Relation.cardinal with_edge - Relation.cardinal model + 1 }

(* Rows of anc as datalogd prints them in ROW lines, sorted. *)
let model_rows p =
  List.map (fun t -> Format.asprintf "anc%a" Tuple.pp t) (Relation.sorted_elements p.model)
  |> List.sort compare
