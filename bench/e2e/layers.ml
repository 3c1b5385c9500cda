(* The traced pass: every cell once with a span around each public
   call, plus the engine driven step by step, a wire microbenchmark,
   the serve operation stream replayed on an in-process session, and a
   short traced load against the daemon. Produces the per-layer
   metrics and the measurement self-checks. *)

open Datalog
open Pardatalog

let sum = List.fold_left ( +. ) 0.
let f = float_of_int
let ratio a b = if b = 0. then 0. else a /. b
let span_seconds spans name = sum (List.map Spans.seconds (Spans.named spans name))

(* Phase shares of a runtime's wall time; [lanes] is how many
   processors' worth of phase time one second of wall time can hold. *)
let shares prefix (st : Stats.t) ~wall ~lanes =
  let ns phase = f (Option.value (List.assoc_opt phase st.Stats.phase_ns) ~default:0) in
  let share phase = ns phase /. 1e9 /. (wall *. f lanes) in
  [
    (prefix ^ ".processing_share", share "processing");
    (prefix ^ ".receiving_share", share "receiving");
    (prefix ^ ".sending_share", share "sending");
    (prefix ^ ".termination_share", share "termination-test");
  ]

let stats_args (st : Stats.t) =
  [ ("rounds", f st.Stats.rounds); ("messages", f (Stats.total_messages st)) ]

(* A traced runtime cell: its checked result and wall seconds. *)
let traced_cell spans tally p s cell name =
  Gc.compact ();
  tally.Batch.attempted <- tally.Batch.attempted + 1;
  let t, result =
    Measure.time (fun () ->
        Spans.span spans ~run:(Batch.cell_name cell) name
          ~args:(fun (_, st) -> Option.fold ~none:[] ~some:stats_args st)
          (fun () -> Batch.run_cell s cell))
  in
  Option.iter (fun why -> Batch.fail tally (name ^ ": " ^ why)) (Batch.verdict p result);
  match snd result with Some st -> (st, t) | None -> failwith (name ^ ": no statistics")

(* Create, bootstrap and step the engine until nothing is pending: the
   work of Seminaive.evaluate, with a span per call under one root. *)
let stepped_engine spans (s : Batch.setup) =
  let span name f = Spans.span spans name f in
  let words = ref 0. in
  let wall, (engine, db) =
    Measure.time (fun () ->
        Spans.span spans ~run:"seq" "engine.run" (fun () ->
            let e = span "engine.create" (fun () -> Seminaive.create s.program ~edb:s.edb) in
            ignore (span "engine.bootstrap" (fun () -> Seminaive.bootstrap e));
            let w0 = Gc.minor_words () in
            while Seminaive.has_pending e do
              ignore (span "engine.step" (fun () -> Seminaive.step e))
            done;
            words := Gc.minor_words () -. w0;
            (e, span "engine.database" (fun () -> Seminaive.database e))))
  in
  (engine, db, wall, !words)

(* Wire.encode and Wire.feed on one Data frame of up to 1,000 model
   tuples, the decode side reading from a socketpair. *)
let wire_bench spans (p : Inputs.prepared) =
  let tuples = List.filteri (fun i _ -> i < 1000) (Relation.sorted_elements p.model) in
  let n = f (List.length tuples) in
  let frame =
    Net.Wire.Data
      {
        src = 0;
        dst = 1;
        inc = 0;
        seq = 0;
        attempt = 0;
        replay = false;
        batch = Net.Wire.of_batch (List.map (fun t -> ("anc", t)) tuples);
      }
  in
  let reps = 50 in
  let encoded = ref "" in
  let enc_s, () =
    Measure.time (fun () ->
        Spans.span spans ~run:"wire" "wire.encode" (fun () ->
            for _ = 1 to reps do
              encoded := Net.Wire.encode frame
            done))
  in
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let dec_s = ref 0. in
  Fun.protect
    ~finally:(fun () ->
      Unix.close a;
      Unix.close b)
    (fun () ->
      Spans.span spans ~run:"wire" "wire.decode" (fun () ->
          for _ = 1 to reps do
            let bytes = Bytes.unsafe_of_string !encoded in
            let len = Bytes.length bytes in
            let rec put off = if off < len then put (off + Unix.write a bytes off (len - off)) in
            put 0;
            let reader = Net.Wire.reader () in
            let rec take () =
              match Net.Wire.feed reader b with
              | `Frames ([], _) | `Again -> take ()
              | `Frames (_ :: _, _) -> ()
              | `Eof -> failwith "wire: unexpected EOF"
            in
            let t, () = Measure.time take in
            dec_s := !dec_s +. t
          done));
  [
    ("wire.encode_ns_per_tuple", enc_s *. 1e9 /. f reps /. n);
    ("wire.decode_ns_per_tuple", !dec_s *. 1e9 /. f reps /. n);
    ("wire.bytes_per_tuple", f (String.length !encoded) /. n);
  ]

(* The serve operation stream, replayed on an in-process session of the
   daemon's shape (general scheme, N=2 domains): live reads are model
   reads, writes are update batches; the from-scratch query is a
   runtime run and is left to the cells. Clients alternate op by op. *)
let session_replay spans tally (p : Inputs.prepared) (s : Batch.setup) ~seed ~cycles =
  let span name f = Spans.span spans ~run:"session" name f in
  let open_s, session =
    Measure.time (fun () ->
        span "session.open" (fun () ->
            Domain_runtime.open_session ~config:(Batch.domains_config None) s.domains_rw
              ~edb:s.edb))
  in
  let ops c = Serve_load.cycle ~seed ~client:c in
  let apply_ms = ref [] and query_ms = ref [] and summaries = ref [] in
  let base = Relation.cardinal p.model and step = p.toggle_added - 1 in
  let inserted = Array.make 2 0 in
  let batch c op =
    Update_batch.of_list
      [
        {
          Delta.u_op = op;
          u_pred = "par";
          u_tuple = Tuple.of_ints [ Inputs.fresh_source p ~client:c; p.target ];
        };
      ]
  in
  for _ = 1 to cycles do
    let a = ops 0 and b = ops 1 in
    Array.iteri
      (fun i _ ->
        List.iter
          (fun (c, kind) ->
            match kind with
            | Serve_load.Live ->
              tally.Batch.attempted <- tally.Batch.attempted + 1;
              let t, rows =
                Measure.time (fun () ->
                    span "session.query" (fun () -> Database.cardinal (Session.model session) "anc"))
              in
              query_ms := (t *. 1000.) :: !query_ms;
              if rows <> base + (step * (inserted.(0) + inserted.(1))) then
                Batch.fail tally "session: wrong live row count"
            | Serve_load.Update | Serve_load.Retract ->
              tally.Batch.attempted <- tally.Batch.attempted + 1;
              let op, k = if kind = Serve_load.Update then (Delta.Insert, 1) else (Delta.Delete, 0) in
              let t, outcome =
                Measure.time (fun () -> span "session.apply" (fun () -> Session.apply session (batch c op)))
              in
              inserted.(c) <- k;
              apply_ms := (t *. 1000.) :: !apply_ms;
              summaries := outcome.Session.oc_summary :: !summaries;
              let changed = List.length outcome.Session.oc_added + List.length outcome.Session.oc_removed in
              if changed <> p.toggle_added then Batch.fail tally "session: wrong update size"
            | Serve_load.Full -> ())
          [ (0, a.(i)); (1, b.(i)) ])
      a
  done;
  ignore (span "session.close" (fun () -> Session.close session));
  let batches = f (List.length !summaries) in
  let per_batch g = ratio (f (List.fold_left (fun acc x -> acc + g x) 0 !summaries)) batches in
  let apply_p50 = Measure.median !apply_ms and query_p50 = Measure.median !query_ms in
  ( [
      ("session.open_s", open_s);
      ("session.apply_p50_ms", apply_p50);
      ("session.query_p50_ms", query_p50);
      ("session.incr_firings_per_batch", per_batch (fun x -> x.Delta.s_firings));
      ("session.overdeleted_per_batch", per_batch (fun x -> x.Delta.s_overdeleted));
      ("session.rederived_per_batch", per_batch (fun x -> x.Delta.s_rederived));
    ],
    apply_p50,
    query_p50 )

type result = {
  metrics : (string * float) list;
  spans : Spans.t;
  tally : Batch.tally;
  reconcile_ok : bool;
}

let run ~datalogd ~dir ~smoke (p : Inputs.prepared) ~seed =
  let spans = Spans.create () in
  let tally = Batch.tally () in
  let s = Batch.setup ~spans p in
  let setup =
    [
      ("parse.program_s", span_seconds spans "parse.program");
      ("parse.facts_s", span_seconds spans "parse.facts");
      ("plan.suggest_s", span_seconds spans "plan.suggest");
      ("plan.rewrite_s", span_seconds spans "plan.rewrite");
      ("plan.candidates", f s.candidates);
    ]
  in
  let net_st, _ = traced_cell spans tally p s Batch.Net "net.run" in
  let tr = net_st.Stats.transport in
  let messages = Stats.total_messages net_st in
  let net =
    [
      ("net.rounds", f net_st.Stats.rounds);
      ("net.messages", f messages);
      ("net.bytes_per_message", ratio (f (tr.Stats.bytes_sent + tr.Stats.bytes_received)) (f messages));
      ("net.heartbeat_misses", f tr.Stats.heartbeat_misses);
      ("net.worker_restarts", f tr.Stats.worker_restarts);
    ]
  in
  let wire = wire_bench spans p in
  (* Untraced sequential reps alternating with traced stepped ones, in
     both orders: the difference is the tracing overhead. *)
  let reps = if smoke then 1 else 6 in
  let pairs =
    List.init reps (fun i ->
        let plain () =
          Gc.compact ();
          fst (Measure.time (fun () -> Seminaive.evaluate s.program s.edb))
        and traced () =
          Gc.compact ();
          stepped_engine spans s
        in
        if i mod 2 = 0 then
          let p = plain () in
          (p, traced ())
        else
          let t = traced () in
          (plain (), t))
  in
  let seq_plain = List.map fst pairs and stepped = List.map snd pairs in
  let engine, db, _, words = List.nth stepped (reps - 1) in
  tally.Batch.attempted <- tally.Batch.attempted + reps;
  if not (Relation.equal (Database.get db "anc") p.model) then
    Batch.fail tally "engine: anc differs from the sequential model";
  let traced_walls = List.map (fun (_, _, w, _) -> w) stepped in
  (* Reconcile each stepped run: its create, bootstrap, step and
     database spans against the wall time measured around it. *)
  let roots = Spans.named spans "engine.run" in
  let covered root =
    sum
      (List.filter_map
         (fun (sp : Spans.span) -> if sp.parent = root.Spans.id then Some (Spans.seconds sp) else None)
         (Spans.spans spans))
  in
  let reconcile_err =
    List.fold_left2
      (fun acc root wall -> Float.max acc (Float.abs (wall -. covered root) /. wall))
      0. roots traced_walls
  in
  let last_root = List.nth roots (reps - 1) in
  let last_steps =
    List.filter_map
      (fun (sp : Spans.span) ->
        if sp.parent = last_root.Spans.id && sp.name = "engine.step" then Some (Spans.seconds sp) else None)
      (Spans.spans spans)
  in
  let child_s name =
    sum
      (List.filter_map
         (fun (sp : Spans.span) ->
           if sp.parent = last_root.Spans.id && sp.name = name then Some (Spans.seconds sp) else None)
         (Spans.spans spans))
  in
  let st = Seminaive.stats engine in
  let steps = f (List.length last_steps) in
  let probes = f (Seminaive.join_probes engine) in
  let eng =
    [
      ("engine.create_s", child_s "engine.create");
      ("engine.bootstrap_s", child_s "engine.bootstrap");
      ("engine.step_s", sum last_steps);
      ("engine.steps", steps);
      ("engine.step_p50_us", Measure.median last_steps *. 1e6);
      ("engine.step_max_us", List.fold_left Float.max 0. last_steps *. 1e6);
      ("engine.firings", f st.Seminaive.firings);
      ("engine.new_tuples", f st.Seminaive.new_tuples);
      ("engine.dup_ratio", ratio (f st.Seminaive.duplicate_firings) (f st.Seminaive.firings));
      ("engine.join_probes", probes);
      ("engine.probes_per_firing", ratio probes (f st.Seminaive.firings));
      ("engine.minor_words_per_step", ratio words steps);
    ]
  in
  let sim_st, sim_wall = traced_cell spans tally p s Batch.Sim "sim.run" in
  let sim_phase = f (List.fold_left (fun acc (_, ns) -> acc + ns) 0 sim_st.Stats.phase_ns) /. 1e9 in
  let sim =
    [ ("sim.rounds", f sim_st.Stats.rounds); ("sim.messages", f (Stats.total_messages sim_st)) ]
    @ shares "sim" sim_st ~wall:sim_wall ~lanes:1
    @ [ ("sim.unattributed_share", 1. -. (sim_phase /. sim_wall)) ]
  in
  let sequential_firings = st.Seminaive.firings in
  let domains cell prefix =
    let st, wall = traced_cell spans tally p s cell (prefix ^ ".run") in
    let c = st.Stats.comms in
    [
      (prefix ^ ".rounds", f st.Stats.rounds);
      (prefix ^ ".messages", f (Stats.total_messages st));
      (prefix ^ ".coalescing", ratio (f c.Stats.bulk_messages) (f c.Stats.bulk_pushes));
    ]
    @ shares prefix st ~wall ~lanes:Batch.nprocs
    @ [
        (prefix ^ ".load_imbalance", Stats.load_imbalance st);
        (prefix ^ ".redundancy", Stats.redundancy_vs ~sequential_firings st);
      ]
  in
  let dom = domains Batch.Domains "domains" in
  let auto = domains Batch.Domains_auto "domains_auto" in
  let session, apply_p50, query_p50 =
    session_replay spans tally p s ~seed ~cycles:(if smoke then 1 else 2)
  in
  (* A short traced load: client-side spans per request, keyed by the
     protocol id, and the daemon's own counters. *)
  Serve_load.stage ~dir p;
  let d, c, _ =
    Spans.span spans ~run:"serve" "serve.start" (fun () ->
        Serve_load.start ~datalogd ~dir ~tag:"trace" p)
  in
  let load, (final_ok, counters) =
    Fun.protect
      ~finally:(fun () ->
        Serve.Client.close c;
        Serve_load.stop d)
      (fun () ->
        let load =
          Serve_load.with_clients d p ~seed (fun clients ->
              Serve_load.burst ~spans p clients ~cycles:(if smoke then 1 else 2))
        in
        (load, Serve_load.final_check c p))
  in
  tally.Batch.attempted <- tally.Batch.attempted + List.length load.Serve_load.samples + 1;
  List.iter (Batch.fail tally) load.Serve_load.failures;
  if not final_ok then Batch.fail tally "serve: final answer differs from the sequential model";
  let counter k = Option.value (List.assoc_opt k counters) ~default:nan in
  let p50 kinds = Measure.median (Serve_load.latencies [ load ] kinds) in
  let serve =
    [
      ("serve.live_overhead_p50_ms", p50 [ Serve_load.Live ] -. query_p50);
      ("serve.update_overhead_p50_ms", p50 [ Serve_load.Update; Serve_load.Retract ] -. apply_p50);
      ("serve.rejected_busy", counter "rejected_busy");
      ("serve.replays", counter "replays");
      ("serve.retry_inflight", counter "retry_inflight");
      ("serve.protocol_errors", counter "protocol_errors");
    ]
  in
  let measurement =
    [
      ("trace.overhead_frac", (Measure.median traced_walls /. Measure.median seq_plain) -. 1.);
      ("trace.reconcile_err", reconcile_err);
    ]
  in
  {
    metrics = setup @ eng @ sim @ dom @ auto @ net @ wire @ session @ serve @ measurement;
    spans;
    tally;
    reconcile_ok = reconcile_err <= 0.10 && Spans.check_monotone spans;
  }
