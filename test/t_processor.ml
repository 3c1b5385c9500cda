(* The transport-independent processor core: channel history,
   credit, acknowledgements and receiver dedup, driven directly
   instead of through a whole runtime. *)

open Datalog
open Pardatalog
open Helpers

let ok = function Ok rw -> rw | Error msg -> Alcotest.fail msg
let rw () = ok (Strategy.general ~seed:0 ~nprocs:2 ancestor)

let make ?capacity ?(reliable = true) ?(rw = rw ()) () =
  Processor.create ~pushdown:true ~capacity ~reliable
    ~retry_after:(fun _ -> 1.0)
    rw ~fragment:(Database.create ()) 0

let anc a b = ("anc", Tuple.of_ints [ a; b ])
let sizes = List.map (fun (b : Processor.batch) -> List.length b.tuples)

(* The batches a sending call emits, in order. *)
let dispatch ~replay p dst tuples =
  let out = ref [] in
  Processor.dispatch ~replay p dst tuples (fun b -> out := b :: !out);
  List.rev !out

let routed p produced =
  Array.fold_left (fun n batch -> n + List.length batch) 0
    (Processor.route p produced)

let cases =
  [
    case "a tuple travels each channel once, again after retraction"
      (fun () ->
        let p = make () in
        let pred, t = anc 1 2 in
        let produced = [ (Rewrite.out_pred pred, t) ] in
        let first = routed p produced in
        Alcotest.(check bool) "routed somewhere" true (first > 0);
        Alcotest.(check int) "history suppresses the resend" 0
          (routed p produced);
        Processor.retract p [ (pred, t) ];
        Alcotest.(check int) "retraction purges the history" first
          (routed p produced));
    case "a batch over the remaining credit is split and stalls" (fun () ->
        let p = make ~capacity:2 () in
        let sent =
          dispatch ~replay:false p 1 [ anc 1 2; anc 2 3; anc 3 4 ]
        in
        Alcotest.(check (list int)) "only the credit's worth goes out" [ 2 ]
          (sizes sent);
        Alcotest.(check int) "the rest is deferred" 1 (Processor.pending_rows p);
        Alcotest.(check int) "one credit stall" 1 p.credit_stalls);
    case "an ack returns exactly that batch's credit" (fun () ->
        let p = make ~capacity:3 () in
        let a = dispatch ~replay:false p 1 [ anc 1 2; anc 2 3 ] in
        let b = dispatch ~replay:false p 1 [ anc 3 4 ] in
        Alcotest.(check int) "all credit in use" 3 p.credit_used.(1);
        let seq = (List.hd b).Processor.seq in
        Alcotest.(check bool) "credit returned" true (Processor.ack p ~dst:1 ~seq);
        Alcotest.(check int) "one tuple's credit back" 2 p.credit_used.(1);
        Alcotest.(check bool) "a repeated ack returns nothing" false
          (Processor.ack p ~dst:1 ~seq);
        Alcotest.(check int) "one ack counted" 1 p.fc.Fault.n_acks;
        ignore (Processor.ack p ~dst:1 ~seq:(List.hd a).Processor.seq);
        Alcotest.(check int) "channel drained" 0 p.credit_used.(1));
    case "a duplicate (src, inc, seq) delivery is suppressed" (fun () ->
        let p = make () in
        Alcotest.(check bool) "first delivery" true (Processor.fresh p (1, 0, 5));
        Alcotest.(check bool) "same seq, new incarnation" true
          (Processor.fresh p (1, 1, 5));
        Alcotest.(check bool) "duplicate" false (Processor.fresh p (1, 0, 5));
        Alcotest.(check int) "counted" 1 p.fc.Fault.n_dups_suppressed);
    case "a self-addressed tuple is delivered in place and counted"
      (fun () ->
        (* Wolfson's scheme keeps every recursive tuple at its producer:
           all of processor 0's routes lead back to 0. *)
        let p =
          make ~reliable:false
            ~rw:(ok (Strategy.wolfson_redundant ~seed:0 ~nprocs:2 ancestor))
            ()
        in
        let pred, t = anc 1 2 in
        let batches =
          Processor.route ~local:true p [ (Rewrite.out_pred pred, t) ]
        in
        Alcotest.(check int) "no batch" 0
          (Array.fold_left (fun n b -> n + List.length b) 0 batches);
        Alcotest.(check int) "sent on the self channel" 1 p.sent_row.(0);
        Alcotest.(check int) "nothing sent elsewhere" 0 p.sent_row.(1);
        Alcotest.(check int) "received" 1 p.received;
        Alcotest.(check int) "accepted" 1 p.accepted;
        Alcotest.(check bool) "now in the engine's @in" true
          (Relation.mem
             (Database.get (Seminaive.store p.engine) (Rewrite.in_pred pred))
             t);
        Alcotest.(check bool) "pending work for the next step" true
          (Seminaive.has_pending p.engine);
        ignore (Processor.route ~local:true p [ (Rewrite.out_pred pred, t) ]);
        Alcotest.(check int) "a known tuple is received, not accepted" 1
          p.accepted;
        Alcotest.(check int) "received twice" 2 p.received);
    case "two specs to one destination send once without a history"
      (fun () ->
        (* The nonlinear rule consumes anc twice, so anc has two send
           specs; with one processor both lead to it. *)
        let rw =
          ok
            (Strategy.general ~seed:0 ~nprocs:1
               Workload.Progs.ancestor_nonlinear)
        in
        Alcotest.(check int) "two send specs" 2 (List.length rw.Rewrite.sends);
        let p = make ~reliable:false ~rw () in
        let pred, t = anc 1 2 in
        let produced = [ (Rewrite.out_pred pred, t) ] in
        Alcotest.(check int) "sent once" 1 (routed p produced);
        Alcotest.(check int) "no history kept" 0
          (Fact.Tbl.length p.history.(0));
        Alcotest.(check int) "dedup:false sends every copy" 2
          (Array.fold_left (fun n b -> n + List.length b) 0
             (Processor.route ~dedup:false p produced)));
    case "a reliable processor keeps and replays its history" (fun () ->
        let p = make () in
        let pred, t = anc 1 2 in
        let produced = [ (Rewrite.out_pred pred, t) ] in
        let batches = Processor.route p produced in
        let dst =
          match
            List.filter (fun d -> batches.(d) <> []) [ 0; 1 ]
          with
          | [ d ] -> d
          | _ -> Alcotest.fail "one destination expected"
        in
        Alcotest.(check (list (pair string tuple_t))) "the replay source"
          [ (pred, t) ] (Processor.history p dst);
        Processor.rebuild p;
        Alcotest.(check int) "a rebuilt engine's re-derivation is not resent"
          0 (routed p produced);
        Alcotest.(check int) "replayed as a batch" 1
          (List.length (dispatch ~replay:true p dst (Processor.history p dst)));
        Alcotest.(check int) "counted as a replay" 1 p.fc.Fault.n_replayed);
    case "replays are counted apart from fresh sends" (fun () ->
        let p = make () in
        ignore (dispatch ~replay:true p 1 [ anc 1 2; anc 2 3 ]);
        ignore (dispatch ~replay:false p 1 [ anc 3 4 ]);
        Alcotest.(check int) "replayed" 2 p.fc.Fault.n_replayed;
        Alcotest.(check int) "sent" 1 p.sent_row.(1));
  ]

(* ------------------------------------------------------------------ *)
(* Counter parity across the processor boundary: the domain runtime     *)
(* delivers self-addressed tuples in place while the simulator models   *)
(* the self channel, yet both count the same communication. Channel     *)
(* tuples and per-processor sent/received are fixed by the fixpoint,    *)
(* whatever the schedule, so a fault-free domains run must match the    *)
(* simulator exactly on the same rewrite.                               *)
(* ------------------------------------------------------------------ *)

let scheme_names = [| "q"; "general"; "wolfson"; "tradeoff" |]

let parity_arb =
  QCheck.pair T_random_sirups.config_arb
    (QCheck.make ~print:(fun i -> scheme_names.(i)) (QCheck.Gen.int_range 0 3))

let parity_rw (gs, n, seed, picks) scheme =
  let program = Parser.program_exn gs.T_random_sirups.gs_source in
  match scheme with
  | 0 -> Option.map snd (T_random_sirups.build gs n seed picks)
  | 1 -> Result.to_option (Strategy.general ~seed ~nprocs:n program)
  | 2 -> Result.to_option (Strategy.wolfson_redundant ~seed ~nprocs:n program)
  | _ -> Result.to_option (Strategy.tradeoff ~seed ~nprocs:n ~alpha:0.5 program)

let prop_domains_counters_equal_sim =
  QCheck.Test.make ~count:40
    ~name:"fault-free domains counters = simulator counters" parity_arb
    (fun ((gs, n, seed, picks), scheme) ->
      match parity_rw (gs, min n 4, seed, picks) scheme with
      | None -> QCheck.assume_fail ()
      | Some rw ->
        let edb = T_random_sirups.edb_for gs seed in
        let sim = (Sim_runtime.run rw ~edb).Sim_runtime.stats in
        let dom = (Domain_runtime.run rw ~edb).Sim_runtime.stats in
        let per f (s : Stats.t) = Array.map f s.Stats.per_proc in
        let sent = per (fun p -> p.Stats.tuples_sent) in
        let received = per (fun p -> p.Stats.tuples_received) in
        if sim.Stats.channel_tuples <> dom.Stats.channel_tuples then
          QCheck.Test.fail_report "channel tuple matrices differ"
        else if sent sim <> sent dom then
          QCheck.Test.fail_report "per-processor tuples_sent differ"
        else if received sim <> received dom then
          QCheck.Test.fail_report "per-processor tuples_received differ"
        else true)

let suites =
  [
    ("processor", cases);
    ( "processor-props",
      [ QCheck_alcotest.to_alcotest prop_domains_counters_equal_sim ] );
  ]
