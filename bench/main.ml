(* Experiment harness.

   The paper (Ganguly, Silberschatz, Tsur, SIGMOD 1990) is qualitative:
   its reproducible artifacts are four figures, the worked examples of
   Sections 4 and 7, and theorem-shaped claims. Every one of them is
   regenerated here, together with the quantitative studies the paper
   defers ("load balancing, processor utilization etc.") and ablations
   of the design choices called out in DESIGN.md.

   Usage:  dune exec bench/main.exe            (all sections)
           dune exec bench/main.exe f3 s6 p2   (selected sections)
           dune build @paper                   (all but timing; part of
                                                dune runtest)

   Sections: f1 f2 f3 f4  e1 e2 e3  t2 s6 e8 d8  p1 p2 p3
              a1 a2 a3 a4 a5  r1 r2  timing

   Flags: --help   list sections and flags, then exit

   Wall-clock regressions are gated by bench/e2e, not here. *)

open Datalog
open Pardatalog

let failures = ref 0

let claim name ok =
  if not ok then incr failures;
  Format.printf "  [%s] %s@." (if ok then "PASS" else "FAIL") name

(* Flags are stripped from argv before section selection; what remains
   is the list of requested section ids (all sections when empty). *)
let picks, want_help =
  let args = match Array.to_list Sys.argv with _ :: rest -> rest | [] -> [] in
  let help a = a = "--help" || a = "-h" in
  (List.filter (fun a -> not (help a)) args, List.exists help args)

let section id title f =
  let wanted =
    match picks with [] -> true | picks -> List.mem id picks
  in
  if wanted then begin
    Format.printf "@.=== %s: %s ===@." (String.uppercase_ascii id) title;
    f ()
  end

(* ------------------------------------------------------------------ *)
(* Shared workloads (fixed seeds: every run reproduces these numbers). *)
(* ------------------------------------------------------------------ *)

let workloads =
  lazy
    (let rng = Workload.Rng.create ~seed:2026 in
     [
       ("chain-200", Workload.Graphgen.chain 200);
       ("tree-d9", Workload.Graphgen.binary_tree ~depth:9);
       ("random-120x240",
        Workload.Graphgen.random_digraph rng ~nodes:120 ~edges:240);
       ("cycle-60", Workload.Graphgen.cycle 60);
     ])

let edb_of edges = Workload.Edb.of_edges edges
let ancestor = Workload.Progs.ancestor

(* ------------------------------------------------------------------ *)
(* F1-F4: the figures.                                                 *)
(* ------------------------------------------------------------------ *)

let sirup_of p = Result.get_ok (Analysis.as_sirup p)

let f1 () =
  let g = Dataflow.of_sirup (sirup_of Workload.Progs.example7) in
  Format.printf "  dataflow graph: @[%a@]@." Dataflow.pp g;
  claim "Figure 1 is the chain 1 -> 2 -> 3"
    (g.Dataflow.edges = [ (1, 2); (2, 3) ])

let f2 () =
  let s = sirup_of ancestor in
  let g = Dataflow.of_sirup s in
  Format.printf "  dataflow graph: @[%a@]@." Dataflow.pp g;
  claim "Figure 2 is the self-loop on position 2"
    (g.Dataflow.edges = [ (2, 2) ]);
  match Dataflow.communication_free_choice s with
  | Some fc ->
    claim "Theorem 3 recovers Example 1's choice v(r) = <Y>"
      (fc.Dataflow.vr = [ "Y" ] && fc.Dataflow.ve = [ "Y" ])
  | None -> claim "Theorem 3 recovers Example 1's choice v(r) = <Y>" false

let figure3 =
  lazy
    (Netgraph.of_labels (Pid.bitvec 2)
       [
         ("(00)", "(00)"); ("(00)", "(10)");
         ("(01)", "(00)"); ("(01)", "(01)"); ("(01)", "(10)");
         ("(10)", "(01)"); ("(10)", "(10)"); ("(10)", "(11)");
         ("(11)", "(01)"); ("(11)", "(11)");
       ])

let f3 () =
  match
    Derive.minimal_network
      { sirup = sirup_of Workload.Progs.example6; ve = [ "X"; "Y" ];
        vr = [ "Y"; "Z" ]; spec = Hash_fn.Bitvec }
  with
  | Error e -> claim ("Figure 3 derivation: " ^ e) false
  | Ok net ->
    Format.printf "  derived network: @[%a@]@." Netgraph.pp net;
    claim "Figure 3: 10 edges; (00) can reach only itself and (10)"
      (Netgraph.equal net (Lazy.force figure3));
    (* Run on random data for several bit functions g and confirm the
       execution stays inside the derived network. *)
    let ok = ref true in
    List.iter
      (fun seed ->
        let h = Hash_fn.bitvec ~seed ~arity:2 () in
        let rw =
          Rewrite.make Workload.Progs.example6
            ~policies:
              [
                Rewrite.Uniform (Discriminant.make ~vars:[ "X"; "Y" ] ~fn:h);
                Rewrite.Uniform (Discriminant.make ~vars:[ "Y"; "Z" ] ~fn:h);
              ]
        in
        let rng = Workload.Rng.create ~seed:(seed + 100) in
        let edb = Database.create () in
        List.iter
          (fun (a, b) ->
            ignore (Database.add_fact edb "q" (Tuple.of_ints [ a; b ]));
            ignore (Database.add_fact edb "r" (Tuple.of_ints [ b; a ])))
          (Workload.Graphgen.random_digraph rng ~nodes:25 ~edges:50);
        let r = Sim_runtime.run rw ~edb in
        ok :=
          !ok && Verify.channels_within r.Sim_runtime.stats (Lazy.force figure3))
      [ 0; 1; 2; 3; 4 ];
    claim "every execution (5 bit functions, random data) stays inside it"
      !ok

let figure4 =
  lazy
    (Netgraph.of_labels
       (Pid.range ~lo:(-1) ~hi:2)
       [
         ("-1", "-1"); ("-1", "1"); ("-1", "2");
         ("0", "0"); ("0", "1"); ("0", "2");
         ("1", "-1"); ("1", "0"); ("1", "1");
         ("2", "-1"); ("2", "0"); ("2", "2");
       ])

let f4 () =
  match
    Derive.minimal_network
      { sirup = sirup_of Workload.Progs.example7; ve = [ "U"; "V"; "W" ];
        vr = [ "V"; "W"; "Z" ];
        spec = Hash_fn.Linear { coeffs = [| 1; -1; 1 |]; lo = -1 } }
  with
  | Error e -> claim ("Figure 4 derivation: " ^ e) false
  | Ok net ->
    Format.printf "  derived network: @[%a@]@." Netgraph.pp net;
    claim "Figure 4 matches the solutions of equations (4)-(5)"
      (Netgraph.equal net (Lazy.force figure4))

(* ------------------------------------------------------------------ *)
(* E1-E3: the Section 4 examples, quantitatively.                      *)
(* ------------------------------------------------------------------ *)

let header () =
  Format.printf "  %-16s %2s %6s %9s %9s %9s %8s %8s@." "workload" "N"
    "equal" "messages" "firings" "seqfire" "baseres" "rounds"

let row name n (report : Verify.report) =
  Format.printf "  %-16s %2d %6b %9d %9d %9d %8d %8d@." name n
    report.Verify.equal_answers report.Verify.messages
    report.Verify.parallel_firings report.Verify.sequential_firings
    (Stats.total_base_resident report.Verify.stats)
    report.Verify.stats.Stats.rounds

let for_workloads f =
  List.iter
    (fun (name, edges) ->
      let edb = edb_of edges in
      List.iter (fun n -> f name edb n) [ 2; 4; 8 ])
    (Lazy.force workloads)

let e1 () =
  header ();
  let all_silent = ref true and all_exact = ref true in
  for_workloads (fun name edb n ->
      let rw =
        Result.get_ok (Strategy.hash_q ~nprocs:n ~ve:[ "Y" ] ~vr:[ "Y" ] ancestor)
      in
      let report = Verify.check rw ~edb in
      row name n report;
      all_silent := !all_silent && report.Verify.messages = 0;
      all_exact :=
        !all_exact && report.Verify.equal_answers
        && report.Verify.non_redundant);
  claim "no inter-processor message on any workload or N" !all_silent;
  claim "always exact and non-redundant (Theorems 1-2)" !all_exact;
  claim "base relation is fully replicated (N copies)"
    (let edb = edb_of (List.assoc "chain-200" (Lazy.force workloads)) in
     let rw =
       Result.get_ok (Strategy.hash_q ~nprocs:4 ~ve:[ "Y" ] ~vr:[ "Y" ] ancestor)
     in
     let r = Sim_runtime.run rw ~edb in
     Stats.total_base_resident r.Sim_runtime.stats
     = 4 * Database.cardinal edb "par")

let e2_messages : (string * int, int) Hashtbl.t = Hashtbl.create 16

let e2 () =
  header ();
  let all_exact = ref true in
  for_workloads (fun name edb n ->
      let rng = Workload.Rng.create ~seed:5 in
      let partition = Workload.Edb.partition_random rng ~nprocs:n edb ~pred:"par" in
      let rw = Result.get_ok (Strategy.example2 ~nprocs:n ~partition ancestor) in
      let report = Verify.check rw ~edb in
      row name n report;
      Hashtbl.replace e2_messages (name, n) report.Verify.messages;
      all_exact :=
        !all_exact && report.Verify.equal_answers
        && report.Verify.non_redundant);
  claim "arbitrary fragments stay exact and non-redundant" !all_exact;
  claim "base relation is fully partitioned (1 copy total)"
    (let edb = edb_of (List.assoc "chain-200" (Lazy.force workloads)) in
     let rng = Workload.Rng.create ~seed:5 in
     let partition = Workload.Edb.partition_random rng ~nprocs:4 edb ~pred:"par" in
     let rw = Result.get_ok (Strategy.example2 ~nprocs:4 ~partition ancestor) in
     let r = Sim_runtime.run rw ~edb in
     Stats.total_base_resident r.Sim_runtime.stats
     = Database.cardinal edb "par")

let e3 () =
  header ();
  let all_exact = ref true and always_cheaper = ref true in
  let compared = ref false in
  for_workloads (fun name edb n ->
      let rw = Result.get_ok (Strategy.example3 ~nprocs:n ancestor) in
      let report = Verify.check rw ~edb in
      row name n report;
      (match Hashtbl.find_opt e2_messages (name, n) with
       | Some e2m ->
         compared := true;
         always_cheaper := !always_cheaper && report.Verify.messages <= e2m
       | None -> ());
      all_exact :=
        !all_exact && report.Verify.equal_answers
        && report.Verify.non_redundant);
  claim "always exact and non-redundant" !all_exact;
  if !compared then
    claim "never more traffic than Example 2 on the same workload"
      !always_cheaper

(* ------------------------------------------------------------------ *)
(* T2: Theorems 2 and 6 across schemes and programs.                   *)
(* ------------------------------------------------------------------ *)

let t2 () =
  Format.printf "  %-34s %9s %9s %6s@." "configuration" "parallel"
    "sequential" "ok";
  let all_ok = ref true in
  let run name program edb rw_result =
    match rw_result with
    | Error e -> Format.printf "  %-34s skipped: %s@." name e
    | Ok rw ->
      let _, seq = Seminaive.evaluate program edb in
      let r = Sim_runtime.run rw ~edb in
      let par = Stats.total_firings r.Sim_runtime.stats in
      let ok = par <= seq.Seminaive.firings in
      all_ok := !all_ok && ok;
      Format.printf "  %-34s %9d %9d %6b@." name par seq.Seminaive.firings ok
  in
  let tree = edb_of (Workload.Graphgen.binary_tree ~depth:7) in
  let rng = Workload.Rng.create ~seed:77 in
  let rand = edb_of (Workload.Graphgen.random_digraph rng ~nodes:80 ~edges:160) in
  let sg = Workload.Edb.same_generation rng ~people:40 ~parents_per:2 in
  List.iter
    (fun n ->
      run
        (Printf.sprintf "ancestor/q(Y;Y)/N=%d" n)
        ancestor tree
        (Strategy.hash_q ~nprocs:n ~ve:[ "Y" ] ~vr:[ "Y" ] ancestor);
      run
        (Printf.sprintf "ancestor/q(X;Z)/N=%d" n)
        ancestor rand
        (Strategy.hash_q ~nprocs:n ~ve:[ "X" ] ~vr:[ "Z" ] ancestor);
      run
        (Printf.sprintf "nonlinear-ancestor/T/N=%d" n)
        Workload.Progs.ancestor_nonlinear tree
        (Strategy.general ~nprocs:n Workload.Progs.ancestor_nonlinear);
      run
        (Printf.sprintf "same-generation/T/N=%d" n)
        Workload.Progs.same_generation sg
        (Strategy.general ~nprocs:n Workload.Progs.same_generation))
    [ 2; 4; 8 ];
  claim "every guarded scheme fires at most the sequential count" !all_ok

(* ------------------------------------------------------------------ *)
(* S6: the Section 6 redundancy/communication spectrum.                *)
(* ------------------------------------------------------------------ *)

let s6 () =
  let rng = Workload.Rng.create ~seed:13 in
  let edges = Workload.Graphgen.random_digraph rng ~nodes:80 ~edges:160 in
  let edb = edb_of edges in
  let _, seq = Seminaive.evaluate ancestor edb in
  Format.printf "  random-80x160, N=4, sequential firings = %d@."
    seq.Seminaive.firings;
  Format.printf "  %-7s %6s %10s %12s %8s@." "alpha" "equal" "messages"
    "redundancy" "rounds";
  let results =
    List.map
      (fun alpha ->
        let rw = Result.get_ok (Strategy.tradeoff ~nprocs:4 ~alpha ancestor) in
        let report = Verify.check rw ~edb in
        Format.printf "  %-7.2f %6b %10d %+12.3f %8d@." alpha
          report.Verify.equal_answers report.Verify.messages
          report.Verify.redundancy report.Verify.stats.Stats.rounds;
        (alpha, report))
      [ 0.0; 0.125; 0.25; 0.375; 0.5; 0.625; 0.75; 0.875; 1.0 ]
  in
  let get a = List.assoc a results in
  claim "alpha = 0 endpoint is non-redundant (Section 3 scheme)"
    (get 0.0).Verify.non_redundant;
  claim "alpha = 1 endpoint sends nothing (Wolfson's scheme)"
    ((get 1.0).Verify.messages = 0);
  claim "messages decrease monotonically with alpha"
    (let msgs = List.map (fun (_, r) -> r.Verify.messages) results in
     let rec decreasing = function
       | a :: (b :: _ as rest) -> a >= b && decreasing rest
       | _ -> true
     in
     decreasing msgs);
  claim "every point of the spectrum is exact (Theorem 4)"
    (List.for_all (fun (_, r) -> r.Verify.equal_answers) results)

(* ------------------------------------------------------------------ *)
(* E8: the Section 7 scheme on Example 8.                              *)
(* ------------------------------------------------------------------ *)

let e8 () =
  let rw =
    Result.get_ok (Strategy.general ~nprocs:4 Workload.Progs.ancestor_nonlinear)
  in
  Format.printf
    "  processor 0 program (the paper's Example 8 instantiated):@.";
  Format.printf "  %a@." Program.pp rw.Rewrite.programs.(0);
  header ();
  let ok = ref true in
  List.iter
    (fun (name, edges) ->
      let edb = edb_of edges in
      let report = Verify.check rw ~edb in
      row name 4 report;
      ok := !ok && report.Verify.equal_answers && report.Verify.non_redundant)
    (Lazy.force workloads);
  claim "nonlinear ancestor: exact and non-redundant everywhere" !ok

(* ------------------------------------------------------------------ *)
(* P1: load balance and utilization (deferred by the paper).           *)
(* ------------------------------------------------------------------ *)

let p1 () =
  let rng = Workload.Rng.create ~seed:31 in
  let edges = Workload.Graphgen.random_digraph rng ~nodes:150 ~edges:300 in
  let edb = edb_of edges in
  Format.printf "  random-150x300, example 3 scheme@.";
  Format.printf "  %2s %9s %9s %9s %11s %12s@." "N" "minfire" "maxfire"
    "imbalance" "utilization" "msgs/firing";
  let balanced = ref true in
  List.iter
    (fun n ->
      let rw = Result.get_ok (Strategy.example3 ~nprocs:n ancestor) in
      let r = Sim_runtime.run rw ~edb in
      let s = r.Sim_runtime.stats in
      let fires = Array.map (fun p -> p.Stats.firings) s.Stats.per_proc in
      let minf = Array.fold_left min max_int fires in
      let maxf = Array.fold_left max 0 fires in
      let util =
        Array.fold_left
          (fun acc p ->
            acc
            +. (float_of_int p.Stats.active_rounds
                /. float_of_int (max 1 s.Stats.rounds)))
          0.0 s.Stats.per_proc
        /. float_of_int n
      in
      let mpf =
        float_of_int (Stats.total_messages s)
        /. float_of_int (max 1 (Stats.total_firings s))
      in
      Format.printf "  %2d %9d %9d %9.3f %11.2f %12.3f@." n minf maxf
        (Stats.load_imbalance s) util mpf;
      if n >= 2 && n <= 8 then
        balanced := !balanced && Stats.load_imbalance s < 2.0)
    [ 1; 2; 4; 8; 16 ];
  claim "hash partitioning keeps imbalance below 2x for N in 2..8" !balanced

(* ------------------------------------------------------------------ *)
(* P2: wall-clock behaviour of the true multicore runtime.             *)
(* ------------------------------------------------------------------ *)

let time_once f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (Unix.gettimeofday () -. t0, x)

let median_time f =
  let samples = List.init 3 (fun _ -> fst (time_once f)) in
  List.nth (List.sort compare samples) 1

let p2 () =
  let cores = Domain.recommended_domain_count () in
  Format.printf
    "  machine offers %d core(s); speedup over the sequential engine is \
     only expected when N <= cores@."
    cores;
  let rng = Workload.Rng.create ~seed:8 in
  let edges = Workload.Graphgen.random_digraph rng ~nodes:220 ~edges:440 in
  let edb = edb_of edges in
  let seq_t =
    median_time (fun () -> ignore (Seminaive.evaluate ancestor edb))
  in
  Format.printf "  random-220x440; sequential semi-naive: %.3fs@." seq_t;
  Format.printf "  %-12s %2s %9s %9s %9s@." "scheme" "N" "time(s)"
    "speedup" "msgs";
  List.iter
    (fun (label, make) ->
      List.iter
        (fun n ->
          match make n with
          | Error e -> Format.printf "  %-12s %2d skipped: %s@." label n e
          | Ok rw ->
            let t, r = time_once (fun () -> Domain_runtime.run rw ~edb) in
            Format.printf "  %-12s %2d %9.3f %9.2f %9d@." label n t
              (seq_t /. t)
              (Stats.total_messages r.Sim_runtime.stats))
        [ 1; 2; 4 ])
    [
      ("nocomm", fun n -> Strategy.no_communication ~nprocs:n ancestor);
      ("example3", fun n -> Strategy.example3 ~nprocs:n ancestor);
    ];
  (* Multiplexing: N logical processors on a single domain removes the
     oversubscription cost on machines with fewer cores than
     processors. *)
  Format.printf "  %-22s %9s %9s@." "multiplexing (N=4)" "time(s)" "speedup";
  let rw = Result.get_ok (Strategy.example3 ~nprocs:4 ancestor) in
  List.iter
    (fun domains ->
      let t, _ =
        time_once (fun () ->
            Domain_runtime.run
              ~config:Run_config.(default |> with_domains (Some domains))
              rw ~edb)
      in
      Format.printf "  %-22s %9.3f %9.2f@."
        (Printf.sprintf "4 procs / %d domain(s)" domains)
        t (seq_t /. t))
    [ 1; 2; 4 ];
  claim "domain runtime agrees with the sequential answers"
    (let rw = Result.get_ok (Strategy.example3 ~nprocs:4 ancestor) in
     let seq_db, _ = Seminaive.evaluate ancestor edb in
     let r = Domain_runtime.run rw ~edb in
     Relation.equal
       (Database.get seq_db "anc")
       (Database.get r.Sim_runtime.answers "anc"))

(* ------------------------------------------------------------------ *)
(* P3: parallelism profile — when does the paper's parallelism pay?    *)
(* ------------------------------------------------------------------ *)

let p3 () =
  Format.printf
    "  tuples derived per round (the frontier) under example 3, N=8:@.";
  Format.printf "  %-16s %7s %9s %9s %10s@." "workload" "rounds"
    "peak/rnd" "mean/rnd" "peak-procs";
  let peaks = Hashtbl.create 4 in
  List.iter
    (fun (name, edges) ->
      let edb = edb_of edges in
      let rw = Result.get_ok (Strategy.example3 ~nprocs:8 ancestor) in
      let r = Sim_runtime.run rw ~edb in
      let s = r.Sim_runtime.stats in
      let profile = Stats.frontier_profile s in
      let peak = List.fold_left max 0 profile in
      let mean =
        float_of_int (List.fold_left ( + ) 0 profile)
        /. float_of_int (max 1 (List.length profile))
      in
      Hashtbl.replace peaks name peak;
      Format.printf "  %-16s %7d %9d %9.1f %10d@." name s.Stats.rounds peak
        mean
        (Stats.peak_parallelism s))
    (Lazy.force workloads);
  (* The structural claim: a chain's frontier is as thin as the data is
     deep, while bushy data keeps all processors busy. *)
  claim "bushy data yields a frontier orders wider than a chain's"
    (match
       Hashtbl.find_opt peaks "tree-d9", Hashtbl.find_opt peaks "chain-200"
     with
     | Some tree, Some chain -> tree > 4 * chain
     | _ -> false);
  claim "on bushy data every processor contributes in some round"
    (let edb = edb_of (List.assoc "tree-d9" (Lazy.force workloads)) in
     let rw = Result.get_ok (Strategy.example3 ~nprocs:8 ancestor) in
     let r = Sim_runtime.run rw ~edb in
     Stats.peak_parallelism r.Sim_runtime.stats = 8)

(* ------------------------------------------------------------------ *)
(* D8: the Dong [8] decomposition baseline (criticized in the intro).  *)
(* ------------------------------------------------------------------ *)

let d8 () =
  let nprocs = 4 in
  (* Data with K constant-disjoint components: Dong's best case at
     K >= nprocs, degenerate at K = 1. *)
  let shifted_chains k len =
    List.concat
      (List.init k (fun c ->
           List.map
             (fun (a, b) -> (a + (c * 10_000), b + (c * 10_000)))
             (Workload.Graphgen.chain len)))
  in
  Format.printf
    "  N=%d; per-row: components found, max/mean firing imbalance@." nprocs;
  Format.printf "  %-22s %11s %10s %12s %10s@." "workload" "components"
    "dong-imb" "dong-msgs" "hash-imb";
  let all_exact = ref true in
  let degenerate_imb = ref 0.0 in
  List.iter
    (fun (name, edges) ->
      let edb = edb_of edges in
      let seq, _ = Seminaive.evaluate ancestor edb in
      (match Decompose.run ancestor ~nprocs edb with
       | Error e -> Format.printf "  %-22s skipped: %s@." name e
       | Ok (r, a) ->
         let hash_rw = Result.get_ok (Strategy.example3 ~nprocs ancestor) in
         let hash_r = Sim_runtime.run hash_rw ~edb in
         let exact =
           Relation.equal (Database.get seq "anc")
             (Database.get r.Sim_runtime.answers "anc")
         in
         all_exact := !all_exact && exact;
         let dong_imb = Stats.load_imbalance r.Sim_runtime.stats in
         if a.Decompose.component_count = 1 then degenerate_imb := dong_imb;
         Format.printf "  %-22s %11d %10.2f %12d %10.2f@." name
           a.Decompose.component_count dong_imb
           (Stats.total_messages ~include_self:true r.Sim_runtime.stats)
           (Stats.load_imbalance hash_r.Sim_runtime.stats)))
    [
      ("8-disjoint-chains", shifted_chains 8 40);
      ("4-disjoint-chains", shifted_chains 4 80);
      ("2-disjoint-chains", shifted_chains 2 160);
      ("1-connected-cycle", Workload.Graphgen.cycle 100);
    ];
  claim "Dong's scheme is exact whenever it applies" !all_exact;
  claim
    "on connected data it degenerates to one busy processor (imbalance = N)"
    (!degenerate_imb >= float_of_int nprocs -. 0.01)

(* ------------------------------------------------------------------ *)
(* A1-A4: ablations.                                                   *)
(* ------------------------------------------------------------------ *)

let a1 () =
  (* Resend suppression (the paper's difference operation). *)
  let edb = edb_of (Workload.Graphgen.binary_tree ~depth:8) in
  let rw = Result.get_ok (Strategy.example3 ~nprocs:4 ancestor) in
  let normal = Sim_runtime.run rw ~edb in
  let noisy =
    Sim_runtime.run
      ~config:Run_config.(default |> with_resend_all true)
      rw ~edb
  in
  let m1 = Stats.total_messages ~include_self:true normal.Sim_runtime.stats in
  let m2 = Stats.total_messages ~include_self:true noisy.Sim_runtime.stats in
  Format.printf
    "  with difference operation: %d tuples sent; without: %d (x%.1f)@." m1
    m2
    (float_of_int m2 /. float_of_int (max 1 m1));
  claim "suppressing resends saves traffic" (m1 < m2);
  claim "and does not change the answers"
    (Database.equal normal.Sim_runtime.answers noisy.Sim_runtime.answers)

let a2 () =
  (* Unicast send analysis vs forced broadcast: same join, but
     discriminating on <X, Z> hides the coverage of the recursive atom
     and forces broadcast sends. *)
  let edb = edb_of (Workload.Graphgen.binary_tree ~depth:8) in
  let unicast = Result.get_ok (Strategy.example3 ~nprocs:4 ancestor) in
  let broadcast =
    Result.get_ok
      (Strategy.hash_q ~nprocs:4 ~ve:[ "X" ] ~vr:[ "X"; "Z" ] ancestor)
  in
  let ru = Verify.check unicast ~edb in
  let rb = Verify.check broadcast ~edb in
  Format.printf "  unicast   v(r)=<Z>:   %7d messages@." ru.Verify.messages;
  Format.printf "  broadcast v(r)=<X,Z>: %7d messages@." rb.Verify.messages;
  claim "both are exact" (ru.Verify.equal_answers && rb.Verify.equal_answers);
  claim "coverage analysis (unicast) sends less"
    (ru.Verify.messages < rb.Verify.messages)

let a3 () =
  (* Guard push-down vs post-join filtering: identical results, very
     different work. We time the simulated run both ways. *)
  let rng = Workload.Rng.create ~seed:4 in
  let edb = edb_of (Workload.Graphgen.random_digraph rng ~nodes:120 ~edges:240) in
  let rw = Result.get_ok (Strategy.example3 ~nprocs:4 ancestor) in
  let t_push, r_push = time_once (fun () -> Sim_runtime.run rw ~edb) in
  let t_flat, r_flat =
    time_once (fun () ->
        Sim_runtime.run
          ~config:Run_config.(default |> with_pushdown false)
          rw ~edb)
  in
  Format.printf "  guard pushed into the join: %.3fs;  post-join: %.3fs@."
    t_push t_flat;
  claim "identical answers"
    (Database.equal r_push.Sim_runtime.answers r_flat.Sim_runtime.answers);
  claim "identical firing counts (the guard is semantic, not heuristic)"
    (Stats.total_firings r_push.Sim_runtime.stats
     = Stats.total_firings r_flat.Sim_runtime.stats)

let a4 () =
  (* Fragmentation vs full replication of the base relations. *)
  let edb = edb_of (Workload.Graphgen.binary_tree ~depth:8) in
  let rw = Result.get_ok (Strategy.example3 ~nprocs:4 ancestor) in
  let frag = Sim_runtime.run rw ~edb in
  let repl =
    Sim_runtime.run
      ~config:Run_config.(default |> with_replicate_base true)
      rw ~edb
  in
  let b1 = Stats.total_base_resident frag.Sim_runtime.stats in
  let b2 = Stats.total_base_resident repl.Sim_runtime.stats in
  Format.printf "  fragmented residency: %d tuples; replicated: %d@." b1 b2;
  claim "fragmentation shrinks the per-processor footprint" (b1 < b2);
  claim "answers unchanged"
    (Database.equal frag.Sim_runtime.answers repl.Sim_runtime.answers)

let a5 () =
  (* Greedy join reordering vs textual order, on a rule whose textual
     order starts with a cross product. *)
  let program =
    Parser.program_exn
      "p(X,Y) :- a(X), b(Y), ab(X,Y).
       tc(X,Y) :- ab(X,Y). tc(X,Y) :- ab(X,Z), tc(Z,Y)."
  in
  let rng = Workload.Rng.create ~seed:23 in
  let db = Database.create () in
  for i = 0 to 399 do
    ignore (Database.add_fact db "a" (Tuple.of_ints [ i ]));
    ignore (Database.add_fact db "b" (Tuple.of_ints [ i + 1000 ]))
  done;
  List.iter
    (fun (x, y) ->
      ignore (Database.add_fact db "ab" (Tuple.of_ints [ x; y + 1000 ])))
    (Workload.Graphgen.random_digraph rng ~nodes:400 ~edges:800);
  let t_plain, (r_plain, s_plain) =
    time_once (fun () -> Seminaive.evaluate program db)
  in
  let t_opt, (r_opt, s_opt) =
    time_once (fun () -> Seminaive.evaluate ~reorder:true program db)
  in
  Format.printf
    "  textual order: %.3fs;  greedy bound-first order: %.3fs (x%.1f)@."
    t_plain t_opt (t_plain /. max 1e-9 t_opt);
  claim "identical answers" (Database.equal r_plain r_opt);
  claim "identical firing counts"
    (s_plain.Seminaive.firings = s_opt.Seminaive.firings);
  claim "reordering is not slower on the cross-product rule"
    (t_opt <= t_plain *. 1.10)

(* ------------------------------------------------------------------ *)
(* R1: robustness — the fault sweep and the checkpoint ablation.       *)
(* ------------------------------------------------------------------ *)

let r1 () =
  let rw = Result.get_ok (Strategy.example3 ~seed:0 ~nprocs:4 ancestor) in
  (* 1. Fault sweep: seeded loss, duplication, reordering, delay and a
     mid-run crash on every workload — the pooled answers never drift
     from the sequential least model. *)
  let all_exact = ref true in
  List.iter
    (fun (name, edges) ->
      let edb = edb_of edges in
      List.iter
        (fun drop ->
          let plan =
            Fault.make ~seed:11 ~drop ~dup:(drop /. 2.) ~reorder:0.15
              ~delay:0.15 ~max_delay:3
              ~crashes:[ { Fault.cr_pid = 2; cr_round = 5; cr_down = 3 } ]
              ()
          in
          let config =
            Run_config.(
              default |> with_fault plan |> with_max_rounds 500_000)
          in
          let r = Verify.check ~config rw ~edb in
          let f = r.Verify.stats.Stats.faults in
          Format.printf
            "  %-16s drop=%.2f  rounds=%5d  drops=%6d retransmits=%6d \
             crashes=%d  equal=%b@."
            name drop r.Verify.stats.Stats.rounds f.Stats.drops
            f.Stats.retransmits f.Stats.crashes r.Verify.equal_answers;
          if not r.Verify.equal_answers then all_exact := false)
        [ 0.0; 0.1; 0.3 ])
    (Lazy.force workloads);
  claim "pooled answers equal the sequential run under every fault plan"
    !all_exact;
  (* 2. Recovery-cost ablation: one crash, decreasing checkpoint
     interval. The lost bucket re-derives everything since the last
     stable-storage write, so total firings (lost work included) fall
     as checkpoints become more frequent. *)
  let edb = edb_of (Workload.Graphgen.chain 200) in
  let baseline =
    Stats.total_firings (Sim_runtime.run rw ~edb).Sim_runtime.stats
  in
  let cost checkpoint_every =
    let plan =
      Fault.make ~seed:3
        ~crashes:[ { Fault.cr_pid = 1; cr_round = 60; cr_down = 4 } ]
        ?checkpoint_every ()
    in
    let config =
      Run_config.(default |> with_fault plan |> with_max_rounds 500_000)
    in
    let r = Sim_runtime.run ~config rw ~edb in
    let c = Stats.total_firings r.Sim_runtime.stats - baseline in
    Format.printf "  checkpoint interval %-5s  redundant firings: %6d@."
      (match checkpoint_every with
       | None -> "-"
       | Some k -> string_of_int k)
      c;
    c
  in
  let none = cost None in
  let k32 = cost (Some 32) in
  let k8 = cost (Some 8) in
  let k2 = cost (Some 2) in
  claim "recovery cost falls as the checkpoint interval shrinks"
    (none >= k32 && k32 >= k8 && k8 >= k2);
  claim "per-2-round checkpoints beat recovery from the base fragment"
    (k2 < none);
  (* 3. The domain runtime survives the same plans. *)
  let plan =
    Fault.make ~seed:5 ~drop:0.2 ~dup:0.1
      ~crashes:[ { Fault.cr_pid = 1; cr_round = 3; cr_down = 1 } ]
      ()
  in
  let edb = edb_of (Workload.Graphgen.cycle 60) in
  let seq, _ = Seminaive.evaluate ancestor edb in
  let dom =
    Domain_runtime.run ~config:Run_config.(default |> with_fault plan) rw ~edb
  in
  claim "domain runtime under faults agrees with the sequential answers"
    (Relation.equal
       (Database.get seq "anc")
       (Database.get dom.Sim_runtime.answers "anc"))

(* ------------------------------------------------------------------ *)
(* R2: overload — skewed traffic under credit, budgets and the dial.   *)
(* ------------------------------------------------------------------ *)

let r2 () =
  (* A hot-spot workload: ~90% of edges leave two hub nodes, so the
     processors owning the hub values take most of the traffic. *)
  let rng = Workload.Rng.create ~seed:7 in
  let edges = Workload.Graphgen.hotspot rng ~nodes:50 ~edges:220 ~hubs:2 in
  let edb = edb_of edges in
  let rw = Result.get_ok (Strategy.example3 ~seed:0 ~nprocs:4 ancestor) in
  let seq, _ = Seminaive.evaluate ancestor edb in
  let seq_anc = Database.get seq "anc" in
  (* 1. Capacity sweep: tighter credit stretches the run over more
     rounds and stalls senders, but never changes the answers and never
     lets a channel exceed its credit. *)
  let all_exact = ref true and all_bounded = ref true in
  List.iter
    (fun capacity ->
      let config =
        Run_config.(
          default |> with_capacity capacity |> with_max_rounds 500_000)
      in
      let r = Sim_runtime.run ~config rw ~edb in
      let s = r.Sim_runtime.stats in
      Format.printf
        "  capacity %-4s rounds=%5d  peak=%2d  stalls=%6d  equal=%b@."
        (match capacity with
         | None -> "-"
         | Some k -> string_of_int k)
        s.Stats.rounds s.Stats.peak_in_flight
        s.Stats.faults.Stats.credit_stalls
        (Relation.equal seq_anc (Database.get r.Sim_runtime.answers "anc"));
      if not (Relation.equal seq_anc (Database.get r.Sim_runtime.answers "anc"))
      then all_exact := false;
      (match capacity with
       | Some k when s.Stats.peak_in_flight > k -> all_bounded := false
       | Some _ | None -> ()))
    [ None; Some 8; Some 2; Some 1 ];
  claim "backpressure never changes the answers" !all_exact;
  claim "observed in-flight peak never exceeds the credit" !all_bounded;
  (* 2. Adaptive degradation: under the same skew and a tight credit,
     the dial trades communication for duplicated local firings. *)
  let static =
    let rw = Result.get_ok (Strategy.tradeoff ~seed:0 ~nprocs:4 ~alpha:0.0 ancestor) in
    Sim_runtime.run
      ~config:
        Run_config.(
          default |> with_capacity (Some 2) |> with_max_rounds 500_000)
      rw ~edb
  in
  let dial = Overload.dial ~high_water:4 ~nprocs:4 () in
  let adaptive =
    let rw =
      Result.get_ok (Strategy.adaptive_tradeoff ~seed:0 ~nprocs:4 ~dial ancestor)
    in
    Sim_runtime.run
      ~config:
        Run_config.(
          default |> with_capacity (Some 2) |> with_dial (Some dial)
          |> with_max_rounds 500_000)
      rw ~edb
  in
  let messages r = Stats.total_messages r.Sim_runtime.stats in
  Format.printf
    "  static alpha=0: %5d messages;  adaptive: %5d (raises=%d decays=%d)@."
    (messages static) (messages adaptive)
    adaptive.Sim_runtime.stats.Stats.faults.Stats.alpha_raises
    adaptive.Sim_runtime.stats.Stats.faults.Stats.alpha_decays;
  claim "the dial engages under skewed backlog"
    (adaptive.Sim_runtime.stats.Stats.faults.Stats.alpha_raises > 0);
  claim "adaptive degradation sheds messages"
    (messages adaptive <= messages static);
  claim "and stays exact (Theorem 4 under a dynamic alpha)"
    (Relation.equal seq_anc (Database.get adaptive.Sim_runtime.answers "anc"));
  (* 3. The watchdog: a breached budget is a structured outcome with
     partial statistics, not a hang or an OOM. *)
  let structured =
    match
      Sim_runtime.run
        ~config:
          Run_config.(
            default
            |> with_limits
                 { Overload.no_limits with max_store_rows = Some 40 })
        rw ~edb
    with
    | _ -> false
    | exception Overload.Overload { reason; stats } ->
      Format.printf "  watchdog: %a (after %d rounds)@." Overload.pp_reason
        reason stats.Stats.rounds;
      stats.Stats.nprocs = 4
  in
  claim "a breached budget aborts with partial stats" structured

(* ------------------------------------------------------------------ *)
(* Timing microbenches (Bechamel).                                     *)
(* ------------------------------------------------------------------ *)

let timing () =
  let open Bechamel in
  let open Toolkit in
  let chain_edb = edb_of (Workload.Graphgen.chain 60) in
  let rng = Workload.Rng.create ~seed:12 in
  let rand_edb =
    edb_of (Workload.Graphgen.random_digraph rng ~nodes:40 ~edges:80)
  in
  let h = Hash_fn.modulo ~nprocs:8 ~arity:2 () in
  let hb = Hash_fn.bitvec ~arity:2 () in
  let key = [| Const.int 42; Const.int 77 |] in
  let rw3 = Result.get_ok (Strategy.example3 ~nprocs:4 ancestor) in
  let tests =
    [
      Test.make ~name:"seminaive/chain-60"
        (Staged.stage (fun () -> Seminaive.evaluate ancestor chain_edb));
      Test.make ~name:"seminaive/random-40x80"
        (Staged.stage (fun () -> Seminaive.evaluate ancestor rand_edb));
      Test.make ~name:"naive/chain-60"
        (Staged.stage (fun () -> Naive.evaluate ancestor chain_edb));
      Test.make ~name:"stratified/3-strata-random"
        (Staged.stage
           (let program =
              Parser.program_exn
                "tc(X,Y) :- e(X,Y). tc(X,Y) :- e(X,Z), tc(Z,Y).
                 twohop(X,Y) :- tc(X,Z), tc(Z,Y).
                 triangle(X) :- twohop(X,X)."
            in
            let rng = Workload.Rng.create ~seed:3 in
            let db =
              Workload.Edb.of_edges ~pred:"e"
                (Workload.Graphgen.random_digraph rng ~nodes:30 ~edges:60)
            in
            fun () -> Stratified.evaluate program db));
      Test.make ~name:"plain/3-strata-random"
        (Staged.stage
           (let program =
              Parser.program_exn
                "tc(X,Y) :- e(X,Y). tc(X,Y) :- e(X,Z), tc(Z,Y).
                 twohop(X,Y) :- tc(X,Z), tc(Z,Y).
                 triangle(X) :- twohop(X,X)."
            in
            let rng = Workload.Rng.create ~seed:3 in
            let db =
              Workload.Edb.of_edges ~pred:"e"
                (Workload.Graphgen.random_digraph rng ~nodes:30 ~edges:60)
            in
            fun () -> Seminaive.evaluate program db));
      Test.make ~name:"sim-runtime/example3-N4-chain-60"
        (Staged.stage (fun () -> Sim_runtime.run rw3 ~edb:chain_edb));
      Test.make ~name:"hash/modulo-pair"
        (Staged.stage (fun () -> Hash_fn.apply h key));
      Test.make ~name:"hash/bitvec-pair"
        (Staged.stage (fun () -> Hash_fn.apply hb key));
    ]
  in
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  Format.printf "  %-34s %14s@." "benchmark" "ns/run";
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      Hashtbl.iter
        (fun name raw ->
          let est = Analyze.one ols instance raw in
          match Analyze.OLS.estimates est with
          | Some [ t ] -> Format.printf "  %-34s %14.1f@." name t
          | _ -> Format.printf "  %-34s %14s@." name "-")
        results)
    tests

(* ------------------------------------------------------------------ *)

(* The section registry, in execution order. --help prints this same
   list, and test/docs_check.sh keeps README.md in sync with it. *)
let sections =
  [
    ("f1", "Figure 1 - dataflow graph of Example 4", f1);
    ("f2", "Figure 2 - dataflow graph of ancestor; Theorem 3", f2);
    ("f3", "Figure 3 - minimal network of Example 6", f3);
    ("f4", "Figure 4 - minimal network of Example 7", f4);
    ("e1", "Example 1 - no communication, shared base", e1);
    ("e2", "Example 2 - arbitrary fragments, broadcast", e2);
    ("e3", "Example 3 - disjoint fragments, unicast", e3);
    ("t2", "Theorems 2 and 6 - non-redundancy across schemes", t2);
    ("s6", "Section 6 - redundancy/communication spectrum", s6);
    ("e8", "Example 8 - general scheme on nonlinear ancestor", e8);
    ("d8", "Dong's decomposition baseline (intro, point 2)", d8);
    ("p1", "load balance and utilization (deferred by the paper)", p1);
    ("p2", "wall-clock behaviour of the domain runtime", p2);
    ("p3", "parallelism profile - frontier width per round", p3);
    ("a1", "ablation - resend suppression (difference operation)", a1);
    ("a2", "ablation - unicast coverage analysis vs broadcast", a2);
    ("a3", "ablation - guard push-down vs post-join filtering", a3);
    ("a4", "ablation - base fragmentation vs replication", a4);
    ("a5", "ablation - greedy join reordering vs textual order", a5);
    ("r1", "robustness - fault sweep and checkpoint ablation", r1);
    ("r2", "overload - skewed traffic, credit, budgets, the dial", r2);
    ("timing", "Bechamel microbenchmarks", timing);
  ]

let () =
  if want_help then begin
    Format.printf
      "usage: dune exec bench/main.exe -- [SECTION...] [FLAGS]@.@.sections:@.";
    List.iter
      (fun (id, title, _) -> Format.printf "  %-7s %s@." id title)
      sections;
    Format.printf "@.flags:@.  --help  this listing@.";
    exit 0
  end

let () =
  List.iter (fun (id, title, f) -> section id title f) sections;
  Format.printf "@.%s@."
    (if !failures = 0 then "all claims PASS"
     else Printf.sprintf "%d claim(s) FAILED" !failures);
  exit (if !failures = 0 then 0 else 1)
