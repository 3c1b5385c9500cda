(* The transport-independent processor core: channel history,
   credit, acknowledgements and receiver dedup, driven directly
   instead of through a whole runtime. *)

open Datalog
open Pardatalog
open Helpers

let rw () =
  match Strategy.general ~seed:0 ~nprocs:2 ancestor with
  | Ok rw -> rw
  | Error msg -> Alcotest.fail msg

let make ?capacity () =
  Processor.create ~pushdown:true ~capacity ~reliable:true
    ~retry_after:(fun _ -> 1.0)
    (rw ()) ~fragment:(Database.create ()) 0

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
    case "replays are counted apart from fresh sends" (fun () ->
        let p = make () in
        ignore (dispatch ~replay:true p 1 [ anc 1 2; anc 2 3 ]);
        ignore (dispatch ~replay:false p 1 [ anc 3 4 ]);
        Alcotest.(check int) "replayed" 2 p.fc.Fault.n_replayed;
        Alcotest.(check int) "sent" 1 p.sent_row.(1));
  ]

let suites = [ ("processor", cases) ]
