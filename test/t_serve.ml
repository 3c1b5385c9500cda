(* The datalogd serving layer: wire protocol round-trips, and the
   server engine driven in-process over real Unix sockets — admission
   control, budget degradation, idempotent replay, duplicate
   suppression and drain, each pinned deterministically (saturation via
   the hold-eval test knob, not timing luck). *)

open Serve

let case name f = Alcotest.test_case name `Quick f

let contains haystack needle =
  let n = String.length haystack and m = String.length needle in
  let rec go i = i + m <= n && (String.sub haystack i m = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)
(* ------------------------------------------------------------------ *)

let protocol_cases =
  [
    case "request parsing accepts the full QUERY form" (fun () ->
        match
          Protocol.parse_request
            "QUERY id=q-1 prog=anc goal=anc rows=true stats=true \
             deadline-ms=250 max-store=100 nprocs=2 scheme=auto runtime=sim"
        with
        | Ok (Protocol.Query q) ->
          Alcotest.(check string) "id" "q-1" q.Protocol.q_id;
          Alcotest.(check string) "prog" "anc" q.Protocol.q_prog;
          Alcotest.(check (option string)) "goal" (Some "anc")
            q.Protocol.q_goal;
          Alcotest.(check bool) "rows" true q.Protocol.q_rows;
          Alcotest.(check bool) "stats" true q.Protocol.q_stats;
          Alcotest.(check (option int)) "deadline" (Some 250)
            q.Protocol.q_deadline_ms;
          Alcotest.(check (option int)) "max-store" (Some 100)
            q.Protocol.q_max_store;
          Alcotest.(check (option int)) "nprocs" (Some 2) q.Protocol.q_nprocs;
          Alcotest.(check bool) "scheme" true (q.Protocol.q_scheme = `Auto);
          Alcotest.(check bool) "runtime" true (q.Protocol.q_runtime = `Sim)
        | Ok _ -> Alcotest.fail "parsed as a non-query"
        | Error e -> Alcotest.fail e);
    case "request parsing rejects malformed input" (fun () ->
        let rejects line =
          match Protocol.parse_request line with
          | Error _ -> ()
          | Ok _ -> Alcotest.failf "accepted %S" line
        in
        rejects "";
        rejects "FROB x=1";
        rejects "QUERY prog=anc";
        rejects "QUERY id=q1";
        rejects "QUERY id=q/1 prog=anc";
        rejects "QUERY id=q1 prog=anc deadline-ms=soon";
        rejects "QUERY id=q1 prog=anc deadline-ms=0";
        rejects "QUERY id=q1 prog=anc scheme=best";
        rejects "QUERY id=q1 prog=anc runtime=gpu";
        rejects "QUERY id=q1 prog=anc rows=maybe";
        rejects "LOAD";
        rejects "LOAD two names";
        rejects "HELLO tenant=space name");
    case "valid_name bounds" (fun () ->
        Alcotest.(check bool) "simple" true (Protocol.valid_name "a-b_c.9");
        Alcotest.(check bool) "empty" false (Protocol.valid_name "");
        Alcotest.(check bool) "128 ok" true
          (Protocol.valid_name (String.make 128 'x'));
        Alcotest.(check bool) "129 too long" false
          (Protocol.valid_name (String.make 129 'x'));
        Alcotest.(check bool) "space" false (Protocol.valid_name "a b");
        Alcotest.(check bool) "equals" false (Protocol.valid_name "a=b"));
    case "reply formatting and classification round-trip" (fun () ->
        let roundtrip line expect =
          match Protocol.classify line with
          | Ok head ->
            Alcotest.(check bool) (Printf.sprintf "%S" line) true
              (expect head)
          | Error e -> Alcotest.failf "%S: %s" line e
        in
        roundtrip Protocol.greeting (function
          | Protocol.Ready { proto } -> proto = Protocol.version
          | _ -> false);
        roundtrip
          (Protocol.busy ~reason:"queue" ~retry_after_ms:25 ())
          (function
            | Protocol.Busy { id = None; reason = "queue";
                              retry_after_ms = 25 } ->
              true
            | _ -> false);
        roundtrip
          (Protocol.busy ~id:"q1" ~reason:"tenant" ~retry_after_ms:7 ())
          (function
            | Protocol.Busy { id = Some "q1"; reason = "tenant";
                              retry_after_ms = 7 } ->
              true
            | _ -> false);
        roundtrip (Protocol.retry ~id:"q2" ~retry_after_ms:11) (function
          | Protocol.Retry { id = "q2"; retry_after_ms = 11 } -> true
          | _ -> false);
        roundtrip
          (Protocol.result_head ~stats:"{\"schema\":2}" ~id:"q3" ~rows:6
             ~scheme:"general" ())
          (function
            | Protocol.Result_head
                { id = "q3"; partial = false; rows = 6; scheme = "general";
                  stats = Some "{\"schema\":2}"; _ } ->
              true
            | _ -> false);
        roundtrip
          (Protocol.partial_head ~id:"q4" ~reason:"deadline" ~scheme:"q" ())
          (function
            | Protocol.Result_head
                { id = "q4"; partial = true; reason = Some "deadline";
                  rows = 0; scheme = "q"; stats = None } ->
              true
            | _ -> false);
        roundtrip (Protocol.end_of_result ~id:"q5") (function
          | Protocol.End_of_result { id = "q5" } -> true
          | _ -> false);
        roundtrip (Protocol.row "anc(1, 2)") (function
          | Protocol.Row "anc(1, 2)" -> true
          | _ -> false);
        roundtrip (Protocol.err ~code:"proto" "what is this") (function
          | Protocol.Err { code = "proto"; msg = "what is this" } -> true
          | _ -> false);
        roundtrip (Protocol.bye ~reason:"draining") (function
          | Protocol.Bye { reason = "draining" } -> true
          | _ -> false);
        roundtrip "PONG" (function Protocol.Pong -> true | _ -> false);
        roundtrip "STATS {\"schema\":1}" (function
          | Protocol.Stats_reply "{\"schema\":1}" -> true
          | _ -> false));
    case "UPDATE and RETRACT parse; missing keys are rejected" (fun () ->
        (match Protocol.parse_request "UPDATE id=u1 prog=tc" with
         | Ok (Protocol.Update u) ->
           Alcotest.(check string) "id" "u1" u.Protocol.u_id;
           Alcotest.(check string) "prog" "tc" u.Protocol.u_prog
         | Ok _ -> Alcotest.fail "parsed as a non-update"
         | Error e -> Alcotest.fail e);
        (match Protocol.parse_request "RETRACT id=u2 prog=tc" with
         | Ok (Protocol.Retract u) ->
           Alcotest.(check string) "id" "u2" u.Protocol.u_id
         | Ok _ -> Alcotest.fail "parsed as a non-retract"
         | Error e -> Alcotest.fail e);
        let rejects line =
          match Protocol.parse_request line with
          | Error _ -> ()
          | Ok _ -> Alcotest.failf "accepted %S" line
        in
        rejects "UPDATE prog=tc";
        rejects "UPDATE id=u1";
        rejects "RETRACT id=u/1 prog=tc";
        rejects "UPDATE id=u1 prog=a=b");
    case "live=true parses; a bad value is rejected" (fun () ->
        (match Protocol.parse_request "QUERY id=q1 prog=anc live=true" with
         | Ok (Protocol.Query q) ->
           Alcotest.(check bool) "live" true q.Protocol.q_live
         | _ -> Alcotest.fail "live query did not parse");
        (match Protocol.parse_request "QUERY id=q1 prog=anc" with
         | Ok (Protocol.Query q) ->
           Alcotest.(check bool) "default off" false q.Protocol.q_live
         | _ -> Alcotest.fail "plain query did not parse");
        match Protocol.parse_request "QUERY id=q1 prog=anc live=yes" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "accepted live=yes");
    case "parse_updates: signs, defaults, multi-fact lines, errors"
      (fun () ->
        let open Datalog in
        let show (u : Delta.update) =
          Format.asprintf "%c%s%a"
            (match u.Delta.u_op with Delta.Insert -> '+' | Delta.Delete -> '-')
            u.Delta.u_pred Tuple.pp u.Delta.u_tuple
        in
        let check_updates name ~default text expect =
          match Protocol.parse_updates ~default text with
          | Ok ups ->
            Alcotest.(check (list string)) name expect (List.map show ups)
          | Error e -> Alcotest.fail e
        in
        check_updates "signed lines" ~default:Delta.Insert
          "+edge(1,2).\n-edge(2,3).\n"
          [ "+edge(1, 2)"; "-edge(2, 3)" ];
        check_updates "unsigned takes the default" ~default:Delta.Delete
          "edge(1,2).\n" [ "-edge(1, 2)" ];
        check_updates "several facts share the line's sign"
          ~default:Delta.Insert "-edge(1,2). edge(3,4).\n"
          [ "-edge(1, 2)"; "-edge(3, 4)" ];
        check_updates "blank lines are skipped" ~default:Delta.Insert
          "\n+edge(1,2).\n\n" [ "+edge(1, 2)" ];
        match Protocol.parse_updates ~default:Delta.Insert "edge(1,." with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "accepted a malformed fact");
  ]

(* ------------------------------------------------------------------ *)
(* Server engine, in-process                                           *)
(* ------------------------------------------------------------------ *)

let ancestor_text =
  "anc(X,Y) :- par(X,Y).\nanc(X,Y) :- anc(X,Z), par(Z,Y).\n"

let chain_facts n =
  String.concat ""
    (List.init n (fun i -> Printf.sprintf "par(%d,%d).\n" (i + 1) (i + 2)))

let fresh_addr =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Server.Unix_sock
      (Filename.concat
         (Filename.get_temp_dir_name ())
         (Printf.sprintf "t_serve_%d_%d.sock" (Unix.getpid ()) !counter))

let with_server ?(facts = 20) config_tweaks f =
  let addr = fresh_addr () in
  let config = config_tweaks (Server.default_config addr) in
  let srv =
    match Server.start config with
    | Ok srv -> srv
    | Error e -> Alcotest.fail e
  in
  Fun.protect
    ~finally:(fun () -> ignore (Server.stop srv))
    (fun () ->
      (match Server.load_program srv "anc" ancestor_text with
       | Ok _ -> ()
       | Error e -> Alcotest.fail e);
      (match Server.add_facts srv "anc" (chain_facts facts) with
       | Ok _ -> ()
       | Error e -> Alcotest.fail e);
      f srv addr)

let with_client addr f =
  match Client.connect addr with
  | Client.Conn c ->
    Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)
  | Client.Conn_busy _ -> Alcotest.fail "connect rejected"
  | Client.Conn_error e -> Alcotest.fail e

let head_of = function
  | Ok (r : Client.reply) -> r.Client.head
  | Error e -> Alcotest.fail e

let sim_tweaks c = { c with Server.nprocs = 2; runtime = `Sim }

let server_cases =
  [
    case "load, facts, query, rows" (fun () ->
        with_server sim_tweaks (fun _srv addr ->
            with_client addr (fun c ->
                (match
                   head_of
                     (Client.request c
                        "QUERY id=q1 prog=anc goal=anc rows=true runtime=sim")
                 with
                 | Protocol.Result_head { partial = false; rows; _ } ->
                   (* chain-20 transitive closure: 21*20/2 pairs *)
                   Alcotest.(check int) "rows" 210 rows
                 | _ -> Alcotest.fail "expected RESULT");
                match Client.request c "QUERY id=q1x prog=anc rows=true" with
                | Ok r ->
                  Alcotest.(check int) "ROW lines" 210
                    (List.length r.Client.rows)
                | Error e -> Alcotest.fail e)));
    case "unknown program is a clean ERR" (fun () ->
        with_server sim_tweaks (fun _srv addr ->
            with_client addr (fun c ->
                match head_of (Client.request c "QUERY id=q1 prog=nope") with
                | Protocol.Err { code = "unknown-prog"; _ } -> ()
                | _ -> Alcotest.fail "expected ERR unknown-prog")));
    case "store budget degrades to PARTIAL with schema-2 attribution"
      (fun () ->
        with_server sim_tweaks (fun _srv addr ->
            with_client addr (fun c ->
                match
                  head_of
                    (Client.request c
                       "QUERY id=q1 prog=anc max-store=4 stats=true \
                        runtime=sim")
                with
                | Protocol.Result_head
                    { partial = true; reason = Some "store_budget";
                      stats = Some j; _ } ->
                  Alcotest.(check bool) "outcome attributed" true
                    (contains j "\"outcome\":\"store_budget\"")
                | _ -> Alcotest.fail "expected PARTIAL store_budget")));
    case "idempotent replay is byte-identical, even for PARTIAL" (fun () ->
        with_server sim_tweaks (fun srv addr ->
            with_client addr (fun c ->
                let q =
                  "QUERY id=same prog=anc rows=true stats=true runtime=sim"
                in
                let a = Client.request c q and b = Client.request c q in
                (match (a, b) with
                 | Ok a, Ok b ->
                   Alcotest.(check (list string)) "identical replay"
                     a.Client.raw b.Client.raw
                 | _ -> Alcotest.fail "query failed");
                let p =
                  "QUERY id=part prog=anc max-store=4 runtime=sim"
                in
                let a = Client.request c p and b = Client.request c p in
                (match (a, b) with
                 | Ok a, Ok b ->
                   Alcotest.(check (list string)) "identical PARTIAL replay"
                     a.Client.raw b.Client.raw
                 | _ -> Alcotest.fail "partial query failed");
                Alcotest.(check bool) "replays counted" true
                  (Obs.Metrics.counter (Server.metrics srv) "serve.replays"
                   >= 2))));
    case "same tenant same id: replay; other tenant: fresh execution"
      (fun () ->
        with_server sim_tweaks (fun srv addr ->
            let run_as tenant =
              with_client addr (fun c ->
                  (match
                     head_of
                       (Client.request c
                          (Printf.sprintf "HELLO tenant=%s" tenant))
                   with
                  | Protocol.Okay _ -> ()
                  | _ -> Alcotest.fail "HELLO failed");
                  match Client.request c "QUERY id=k prog=anc runtime=sim" with
                  | Ok r -> r.Client.raw
                  | Error e -> Alcotest.fail e)
            in
            let a = run_as "alice" in
            let b = run_as "bob" in
            let a' = run_as "alice" in
            Alcotest.(check (list string)) "alice replayed" a a';
            Alcotest.(check (list string)) "bob got his own answer" a b;
            Alcotest.(check int) "exactly one replay"
              1
              (Obs.Metrics.counter (Server.metrics srv) "serve.replays")));
    case "saturation answers BUSY immediately; a retrying client recovers"
      (fun () ->
        with_server
          (fun c ->
            { (sim_tweaks c) with Server.max_inflight = 1; queue_depth = 0;
              tenant_inflight = 2; hold_eval_ms = 300; retry_after_ms = 10 })
          (fun _srv addr ->
            with_client addr (fun slow ->
                with_client addr (fun fast ->
                    (* Park a slow query, then collide with it. *)
                    Client.send slow "QUERY id=slow prog=anc runtime=sim";
                    Unix.sleepf 0.05;
                    (match
                       head_of (Client.request fast "QUERY id=q2 prog=anc")
                     with
                    | Protocol.Busy { reason; _ } ->
                      Alcotest.(check string) "rejected by the gate" "queue"
                        reason
                    | _ -> Alcotest.fail "expected BUSY");
                    (* A duplicate of the in-flight id is RETRY, not a
                       second execution. *)
                    (match
                       head_of (Client.request fast "QUERY id=slow prog=anc")
                     with
                    | Protocol.Retry { id = "slow"; _ } -> ()
                    | _ -> Alcotest.fail "expected RETRY");
                    (* Backoff outlives the hold: the retrying client
                       eventually gets a real answer. *)
                    (match
                       Client.request_retry ~max_attempts:10 ~base_ms:50
                         ~cap_ms:200 fast "QUERY id=q3 prog=anc runtime=sim"
                     with
                    | Ok out ->
                      Alcotest.(check bool) "absorbed at least one BUSY" true
                        (out.Client.busy_replies >= 1);
                      (match out.Client.reply.Client.head with
                       | Protocol.Result_head { partial = false; _ } -> ()
                       | _ -> Alcotest.fail "retry did not recover")
                    | Error e -> Alcotest.fail e);
                    match Client.read_reply slow with
                    | Ok r -> (
                      match r.Client.head with
                      | Protocol.Result_head { partial = false; _ } -> ()
                      | _ -> Alcotest.fail "slow query lost its answer")
                    | Error e -> Alcotest.fail e))));
    case "stats json counts programs and sessions" (fun () ->
        with_server sim_tweaks (fun srv addr ->
            with_client addr (fun c ->
                (match head_of (Client.request c "PING") with
                 | Protocol.Pong -> ()
                 | _ -> Alcotest.fail "expected PONG");
                let j = Server.stats_json srv in
                Alcotest.(check bool) "has program entry" true
                  (contains j "\"anc\":{\"rules\":2,\"facts\":20}");
                Alcotest.(check bool) "one session" true
                  (contains j "\"active_sessions\":1"))));
    case "drain finishes in-flight work and leaks nothing" (fun () ->
        let addr = fresh_addr () in
        let srv =
          match
            Server.start
              { (sim_tweaks (Server.default_config addr)) with
                Server.hold_eval_ms = 200 }
          with
          | Ok s -> s
          | Error e -> Alcotest.fail e
        in
        (match Server.load_program srv "anc" ancestor_text with
         | Ok _ -> ()
         | Error e -> Alcotest.fail e);
        (match Server.add_facts srv "anc" (chain_facts 10) with
         | Ok _ -> ()
         | Error e -> Alcotest.fail e);
        match Client.connect addr with
        | Client.Conn c ->
          Client.send c "QUERY id=inflight prog=anc runtime=sim";
          Unix.sleepf 0.05;
          let stopper =
            Thread.create (fun () -> ignore (Server.stop srv)) ()
          in
          (* The in-flight query must still complete... *)
          (match Client.read_reply c with
           | Ok r -> (
             match r.Client.head with
             | Protocol.Result_head { partial = false; _ } -> ()
             | _ -> Alcotest.fail "in-flight query lost under drain")
           | Error e -> Alcotest.fail e);
          (* ...followed by the drain notice. *)
          (match Client.read_reply c with
           | Ok r -> (
             match r.Client.head with
             | Protocol.Bye { reason = "draining" } -> ()
             | _ -> Alcotest.fail "expected BYE reason=draining")
           | Error _ -> ());
          Client.close c;
          Thread.join stopper;
          Alcotest.(check int) "no session left" 0
            (Server.active_sessions srv)
        | _ -> Alcotest.fail "connect failed");
    case "UPDATE folds into the live model; live rows match from-scratch"
      (fun () ->
        with_server sim_tweaks (fun _srv addr ->
            with_client addr (fun c ->
                (match
                   head_of
                     (Client.request c
                        ~payload:"par(100,101).\n+par(101,102).\n"
                        "UPDATE id=u1 prog=anc")
                 with
                 | Protocol.Okay { op = "update"; kv } ->
                   (* 2 base facts + anc(100,101), anc(101,102),
                      anc(100,102) *)
                   Alcotest.(check (option string)) "added" (Some "5")
                     (Protocol.find_kv kv "added");
                   Alcotest.(check (option string)) "removed" (Some "0")
                     (Protocol.find_kv kv "removed")
                 | _ -> Alcotest.fail "expected OK update");
                let live =
                  match
                    Client.request c "QUERY id=l1 prog=anc live=true rows=true"
                  with
                  | Ok r -> (
                    (match r.Client.head with
                     | Protocol.Result_head { scheme = "live"; rows; _ } ->
                       Alcotest.(check int) "live rows" 213 rows
                     | _ -> Alcotest.fail "expected a live RESULT");
                    r.Client.rows)
                  | Error e -> Alcotest.fail e
                in
                let scratch =
                  match
                    Client.request c "QUERY id=s1 prog=anc rows=true runtime=sim"
                  with
                  | Ok r -> r.Client.rows
                  | Error e -> Alcotest.fail e
                in
                Alcotest.(check (list string))
                  "live = from-scratch, byte for byte" scratch live)));
    case "RETRACT deletes; the reply counts the net model change" (fun () ->
        with_server sim_tweaks (fun _srv addr ->
            with_client addr (fun c ->
                (match
                   head_of
                     (Client.request c
                        ~payload:"+par(100,101).\n+par(101,102).\n"
                        "UPDATE id=u1 prog=anc")
                 with
                 | Protocol.Okay _ -> ()
                 | _ -> Alcotest.fail "seed update failed");
                (match
                   head_of
                     (Client.request c ~payload:"par(100,101).\n"
                        "RETRACT id=u2 prog=anc")
                 with
                 | Protocol.Okay { op = "retract"; kv } ->
                   (* par(100,101), anc(100,101), anc(100,102) go away *)
                   Alcotest.(check (option string)) "removed" (Some "3")
                     (Protocol.find_kv kv "removed");
                   Alcotest.(check (option string)) "added" (Some "0")
                     (Protocol.find_kv kv "added")
                 | _ -> Alcotest.fail "expected OK retract");
                match
                  head_of
                    (Client.request c "QUERY id=l1 prog=anc live=true")
                with
                | Protocol.Result_head { rows; _ } ->
                  Alcotest.(check int) "anc(101,102) survives" 211 rows
                | _ -> Alcotest.fail "expected RESULT")));
    case "replaying an UPDATE id applies the batch exactly once" (fun () ->
        with_server sim_tweaks (fun srv addr ->
            with_client addr (fun c ->
                let u = "UPDATE id=uu prog=anc" in
                let payload = "+par(0,1).\n" in
                let a = Client.request c ~payload u in
                let b = Client.request c ~payload u in
                (match (a, b) with
                 | Ok a, Ok b ->
                   Alcotest.(check (list string)) "byte-identical replay"
                     a.Client.raw b.Client.raw
                 | _ -> Alcotest.fail "update failed");
                Alcotest.(check int) "applied once" 1
                  (Obs.Metrics.counter (Server.metrics srv)
                     "serve.updates_ok");
                Alcotest.(check int) "second send was a replay" 1
                  (Obs.Metrics.counter (Server.metrics srv) "serve.replays"))));
    case "updating a derived predicate is a clean ERR; the model survives"
      (fun () ->
        with_server sim_tweaks (fun _srv addr ->
            with_client addr (fun c ->
                (match
                   head_of
                     (Client.request c ~payload:"anc(1,2).\n"
                        "UPDATE id=bad prog=anc")
                 with
                 | Protocol.Err { code = "update"; _ } -> ()
                 | _ -> Alcotest.fail "expected ERR update");
                match
                  head_of
                    (Client.request c "QUERY id=l1 prog=anc live=true")
                with
                | Protocol.Result_head { rows = 210; _ } -> ()
                | _ -> Alcotest.fail "live model lost after a refused batch")));
    case "an out-of-range integer in LOAD is an ERR; the connection serves on"
      (fun () ->
        with_server sim_tweaks (fun _srv addr ->
            with_client addr (fun c ->
                (match
                   head_of
                     (Client.request c ~payload:"p(99999999999999999999).\n"
                        "LOAD wide")
                 with
                 | Protocol.Err { code = "parse"; msg } ->
                   Alcotest.(check bool) "says why" true
                     (contains msg "integer literal out of range")
                 | _ -> Alcotest.fail "expected ERR parse");
                match
                  head_of (Client.request c "QUERY id=after prog=anc")
                with
                | Protocol.Result_head { rows = 210; _ } -> ()
                | _ -> Alcotest.fail "expected a RESULT after the ERR")));
    case "live queries open the session lazily; FACTS invalidates it"
      (fun () ->
        with_server sim_tweaks (fun srv addr ->
            with_client addr (fun c ->
                (match
                   head_of
                     (Client.request c "QUERY id=l1 prog=anc live=true")
                 with
                 | Protocol.Result_head { scheme = "live"; rows = 210; _ } ->
                   ()
                 | _ -> Alcotest.fail "expected a live RESULT");
                (match Server.add_facts srv "anc" "par(50,51).\n" with
                 | Ok _ -> ()
                 | Error e -> Alcotest.fail e);
                match
                  head_of
                    (Client.request c "QUERY id=l2 prog=anc live=true")
                with
                | Protocol.Result_head { rows; _ } ->
                  Alcotest.(check int) "rebuilt over the new EDB" 211 rows
                | _ -> Alcotest.fail "expected RESULT")));
    case "config validation rejects nonsense" (fun () ->
        let bad tweak =
          match
            Server.validate_config
              (tweak (Server.default_config (fresh_addr ())))
          with
          | Error _ -> ()
          | Ok () -> Alcotest.fail "accepted an invalid config"
        in
        bad (fun c -> { c with Server.nprocs = 0 });
        bad (fun c -> { c with Server.max_inflight = 0 });
        bad (fun c -> { c with Server.queue_depth = -1 });
        bad (fun c -> { c with Server.retry_after_ms = 0 });
        bad (fun c -> { c with Server.drain_grace = -1.0 });
        bad (fun c -> { c with Server.deadline_cap_ms = Some 0 }));
  ]

let suites =
  [ ("serve-protocol", protocol_cases); ("serve-server", server_cases) ]
