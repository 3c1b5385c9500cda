(* Observability: the tracing sink, the metrics registry, the unified
   Run_config, and the tentpole cross-check — with sinks enabled, the
   metrics registry accounts for exactly the same events as the Stats
   counters, on both runtimes, under random fault plans and credit
   bounds.  The zero-cost-when-disabled claim is covered separately by
   prop_zero_fault_exact_counts (t_fault) plus the disabled-sink unit
   tests here. *)

open Pardatalog
open Helpers

let chain_edges n = List.init n (fun i -> (i, i + 1))

let example3_rw () =
  match Strategy.example3 ~seed:0 ~nprocs:2 ancestor with
  | Ok rw -> rw
  | Error msg -> Alcotest.fail msg

let traced_run () =
  let trace = Obs.Trace.create () in
  let metrics = Obs.Metrics.create () in
  let config = Run_config.(default |> with_obs { Obs.trace; metrics }) in
  let r =
    Sim_runtime.run ~config (example3_rw ())
      ~edb:(edb_of_edges (chain_edges 10))
  in
  (trace, metrics, r)

(* ------------------------------------------------------------------ *)
(* Tracing                                                             *)
(* ------------------------------------------------------------------ *)

let all_phases =
  Obs.Trace.
    [
      Sending; Retransmission; Delivery; Receiving; Processing;
      Checkpointing; Termination_test;
    ]

let trace_cases =
  [
    case "a run covers every (pid, round, phase)" (fun () ->
        let trace, _, r = traced_run () in
        let s = r.Sim_runtime.stats in
        Alcotest.(check bool) "ran several rounds" true (s.Stats.rounds > 1);
        for pid = 0 to s.Stats.nprocs - 1 do
          for round = 0 to s.Stats.rounds - 1 do
            List.iter
              (fun phase ->
                Alcotest.(check bool)
                  (Printf.sprintf "pid %d round %d %s" pid round
                     (Obs.Trace.phase_name phase))
                  true
                  (Obs.Trace.covered trace ~pid ~round phase))
              Obs.Trace.[ Sending; Receiving; Processing; Termination_test ]
          done
        done;
        Alcotest.(check int) "one bootstrap instant per processor" 2
          (Obs.Trace.instant_count trace ~name:"bootstrap"));
    case "crash and recovery leave instant events" (fun () ->
        let trace = Obs.Trace.create () in
        let plan =
          Fault.make
            ~crashes:[ { Fault.cr_pid = 1; cr_round = 4; cr_down = 2 } ]
            ()
        in
        let config =
          Run_config.(
            default |> with_fault plan |> with_max_rounds 50_000
            |> with_trace trace)
        in
        let r =
          Sim_runtime.run ~config (example3_rw ())
            ~edb:(edb_of_edges (chain_edges 12))
        in
        Alcotest.(check int) "one crash instant"
          r.Sim_runtime.stats.Stats.faults.Stats.crashes
          (Obs.Trace.instant_count trace ~name:"crash");
        Alcotest.(check int) "one recover instant"
          r.Sim_runtime.stats.Stats.faults.Stats.recoveries
          (Obs.Trace.instant_count trace ~name:"recover");
        (* Delivery is a transport-level phase of the reliable layer,
           so it only appears under an active plan. *)
        Alcotest.(check bool) "transport delivery spans recorded" true
          (Obs.Trace.covered trace ~pid:Obs.Trace.transport_pid ~round:0
             Obs.Trace.Delivery));
    case "the export is Chrome trace-event JSON" (fun () ->
        let trace, _, r = traced_run () in
        let json = Obs.Trace.to_chrome_json trace in
        let contains needle =
          let nl = String.length needle and jl = String.length json in
          let rec go i =
            i + nl <= jl && (String.sub json i nl = needle || go (i + 1))
          in
          go 0
        in
        Alcotest.(check bool) "wrapped object" true
          (String.length json > 2 && json.[0] = '{');
        List.iter
          (fun needle ->
            Alcotest.(check bool) needle true (contains needle))
          [
            "\"traceEvents\":[";
            "\"displayTimeUnit\":\"ms\"";
            "\"ph\":\"X\"";
            "\"ph\":\"i\"";
            "\"ph\":\"M\"";
            "\"name\":\"sending\"";
            "\"name\":\"termination-test\"";
            "\"name\":\"process_name\"";
          ];
        ignore r);
    case "the disabled sink records nothing and is transparent" (fun () ->
        let t = Obs.Trace.none in
        Alcotest.(check bool) "not enabled" false (Obs.Trace.enabled t);
        let v =
          Obs.Trace.span t ~pid:0 ~round:0 Obs.Trace.Sending (fun () -> 41 + 1)
        in
        Alcotest.(check int) "span passes the value through" 42 v;
        Obs.Trace.instant t ~pid:0 ~round:0 "bootstrap";
        Alcotest.(check int) "no events" 0 (Obs.Trace.event_count t));
    case "spans survive an exception (aborted runs stay traceable)"
      (fun () ->
        let t = Obs.Trace.create () in
        (try
           Obs.Trace.span t ~pid:3 ~round:7 Obs.Trace.Processing (fun () ->
               failwith "boom")
         with Failure _ -> ());
        Alcotest.(check bool) "the span was recorded" true
          (Obs.Trace.covered t ~pid:3 ~round:7 Obs.Trace.Processing));
    case "phase names are stable" (fun () ->
        Alcotest.(check (list string)) "names"
          [
            "sending"; "retransmission"; "delivery"; "receiving";
            "processing"; "checkpointing"; "termination-test";
          ]
          (List.map Obs.Trace.phase_name all_phases));
  ]

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                    *)
(* ------------------------------------------------------------------ *)

let metrics_cases =
  [
    case "counters, gauges and histograms round-trip" (fun () ->
        let m = Obs.Metrics.create () in
        Obs.Metrics.incr m "c";
        Obs.Metrics.incr ~by:4 m "c";
        Obs.Metrics.set_gauge m "g" 7;
        Obs.Metrics.max_gauge m "g" 3;
        Obs.Metrics.max_gauge m "g" 11;
        Obs.Metrics.observe m "h" 0.5;
        Obs.Metrics.observe m "h" 100.0;
        Alcotest.(check int) "counter" 5 (Obs.Metrics.counter m "c");
        Alcotest.(check int) "max gauge" 11 (Obs.Metrics.gauge m "g");
        Alcotest.(check int) "histogram count" 2 (Obs.Metrics.hist_count m "h");
        Alcotest.(check int) "absent counter reads 0" 0
          (Obs.Metrics.counter m "nope"));
    case "the snapshot is versioned JSON with sorted names" (fun () ->
        let m = Obs.Metrics.create () in
        Obs.Metrics.incr m "z.last";
        Obs.Metrics.incr m "a.first";
        let json = Obs.Metrics.to_json m in
        let find needle =
          let nl = String.length needle and jl = String.length json in
          let rec go i =
            if i + nl > jl then -1
            else if String.sub json i nl = needle then i
            else go (i + 1)
          in
          go 0
        in
        Alcotest.(check bool) "schema tag" true (find "\"schema\":1" >= 0);
        Alcotest.(check bool) "sorted" true
          (find "a.first" >= 0 && find "a.first" < find "z.last"));
    case "the disabled registry is a no-op" (fun () ->
        let m = Obs.Metrics.none in
        Obs.Metrics.incr m "c";
        Obs.Metrics.observe m "h" 1.0;
        Alcotest.(check int) "counter stays 0" 0 (Obs.Metrics.counter m "c");
        Alcotest.(check (list (pair string int))) "no counters" []
          (Obs.Metrics.counters m));
    case "runtime metrics include the dataflow series" (fun () ->
        let _, metrics, r = traced_run () in
        Alcotest.(check int) "firings"
          (Stats.total_firings r.Sim_runtime.stats)
          (Obs.Metrics.counter metrics "runtime.firings");
        Alcotest.(check bool) "join probes counted" true
          (Obs.Metrics.counter metrics "joiner.probes" > 0);
        Alcotest.(check bool) "per-round histogram populated" true
          (Obs.Metrics.hist_count metrics "round.new_tuples"
          >= r.Sim_runtime.stats.Stats.rounds));
  ]

(* ------------------------------------------------------------------ *)
(* Run_config and the unified runtime API                              *)
(* ------------------------------------------------------------------ *)

let config_cases =
  [
    case "default matches the historical defaults" (fun () ->
        let d = Run_config.default in
        Alcotest.(check bool) "pushdown on" true d.Run_config.pushdown;
        Alcotest.(check bool) "no resend_all" false d.Run_config.resend_all;
        Alcotest.(check int) "round budget" 1_000_000 d.Run_config.max_rounds;
        Alcotest.(check bool) "fault-free" true
          (Fault.is_none d.Run_config.fault);
        Alcotest.(check bool) "obs disabled" false
          (Obs.Trace.enabled d.Run_config.obs.Obs.trace));
    case "builders compose" (fun () ->
        let c =
          Run_config.(
            default |> with_capacity (Some 3)
            |> with_domains (Some 2) |> with_max_rounds 42)
        in
        Alcotest.(check bool) "capacity" true
          (c.Run_config.capacity = Some 3);
        Alcotest.(check bool) "domains" true (c.Run_config.domains = Some 2);
        Alcotest.(check int) "max_rounds" 42 c.Run_config.max_rounds);
    case "Runtime.find knows both implementations" (fun () ->
        Alcotest.(check int) "two runtimes" 2 (List.length Runtime.all);
        Alcotest.(check bool) "sim" true (Runtime.find "sim" <> None);
        Alcotest.(check bool) "domains" true (Runtime.find "domains" <> None);
        Alcotest.(check bool) "unknown" true (Runtime.find "gpu" = None));
    case "both runtimes answer identically through Runtime.S" (fun () ->
        let edges = chain_edges 8 in
        List.iter
          (fun (module R : Runtime.S) ->
            let module H = Harness (R) in
            Alcotest.(check bool)
              (R.name ^ " agrees with the sequential evaluation")
              true
              (H.agrees_with_sequential ~pred:"anc" ancestor (example3_rw ())
                 ~edb:(edb_of_edges edges)))
          Runtime.all);
    case "both runtimes run from one Run_config" (fun () ->
        let edb = edb_of_edges (chain_edges 6) in
        let config = Run_config.default in
        let a = Sim_runtime.run ~config (example3_rw ()) ~edb in
        let b = Domain_runtime.run ~config (example3_rw ()) ~edb in
        Alcotest.check relation_t "same answers through one config"
          (anc_relation a.Sim_runtime.answers)
          (anc_relation b.Sim_runtime.answers));
    case "the domain runtime honours pushdown" (fun () ->
        (* One domain gives a deterministic schedule, so the probe
           counts of two runs are comparable. In the nonlinear rule the
           general scheme's guard is bound by the first atom, so pushdown
           prunes the second atom's probes. *)
        let rw =
          match
            Strategy.general ~seed:0 ~nprocs:2 Workload.Progs.ancestor_nonlinear
          with
          | Ok rw -> rw
          | Error msg -> Alcotest.fail msg
        in
        let probes pushdown =
          let mx = Obs.Metrics.create () in
          let config =
            Run_config.(
              default |> with_domains (Some 1) |> with_pushdown pushdown
              |> with_metrics mx)
          in
          ignore
            (Domain_runtime.run ~config rw ~edb:(edb_of_edges (chain_edges 12)));
          Obs.Metrics.counter mx "joiner.probes"
        in
        Alcotest.(check bool) "pushdown changes the join probes" true
          (probes true <> probes false));
  ]

(* ------------------------------------------------------------------ *)
(* The tentpole property: metric totals equal the Stats counters,      *)
(* exactly, on random sirups under random fault plans and credit.      *)
(* ------------------------------------------------------------------ *)

let obs_prop_arb =
  QCheck.make
    ~print:(fun ((gs, n, seed, picks), cfg, cap) ->
      Printf.sprintf "%s\nN=%d seed=%d picks=%s\n%s\ncapacity=%s"
        gs.T_random_sirups.gs_source n seed
        (String.concat "," (List.map string_of_int picks))
        (T_fault.print_cfg cfg)
        (match cap with None -> "-" | Some k -> string_of_int k))
    QCheck.Gen.(
      let* base = T_random_sirups.config_arb.QCheck.gen in
      let* cfg = T_fault.plan_cfg_gen in
      let* cap = oneof [ return None; map (fun k -> Some k) (int_range 1 4) ] in
      return (base, cfg, cap))

let prop_metrics_equal_stats (module R : Runtime.S) ~count ~max_n =
  QCheck.Test.make ~count
    ~name:(Printf.sprintf "metrics registry = Stats counters (%s)" R.name)
    obs_prop_arb
    (fun ((gs, n, seed, picks), cfg, cap) ->
      let n = min n max_n in
      match T_random_sirups.build gs n seed picks with
      | None -> QCheck.assume_fail ()
      | Some (_, rw) ->
        let edb = T_random_sirups.edb_for gs seed in
        let mx = Obs.Metrics.create () in
        let config =
          Run_config.(
            default
            |> with_fault (T_fault.plan_of cfg ~nprocs:n)
            |> with_capacity cap |> with_max_rounds 50_000
            |> with_metrics mx)
        in
        let r = R.run ~config rw ~edb in
        let s = r.Sim_runtime.stats in
        let sum f =
          Array.fold_left (fun acc p -> acc + f p) 0 s.Stats.per_proc
        in
        let eq name got want =
          if got <> want then
            QCheck.Test.fail_reportf "%s: metrics %d <> stats %d" name got
              want
          else true
        in
        eq "firings"
          (Obs.Metrics.counter mx "runtime.firings")
          (Stats.total_firings s)
        && eq "tuples_sent"
             (Obs.Metrics.counter mx "runtime.tuples_sent")
             (Stats.total_messages ~include_self:true s)
        && eq "tuples_received"
             (Obs.Metrics.counter mx "runtime.tuples_received")
             (sum (fun p -> p.Stats.tuples_received))
        && eq "retransmits"
             (Obs.Metrics.counter mx "runtime.retransmits")
             s.Stats.faults.Stats.retransmits
        && eq "credit_stalls"
             (Obs.Metrics.counter mx "runtime.credit_stalls")
             s.Stats.faults.Stats.credit_stalls)

let prop_metrics_sim =
  prop_metrics_equal_stats (module Runtime.Sim) ~count:60 ~max_n:max_int

let prop_metrics_domain =
  prop_metrics_equal_stats (module Runtime.Domains) ~count:20 ~max_n:3

let suites =
  [
    ("obs-trace", trace_cases);
    ("obs-metrics", metrics_cases);
    ("obs-config", config_cases);
    ( "obs-props",
      List.map QCheck_alcotest.to_alcotest
        [ prop_metrics_sim; prop_metrics_domain ] );
  ]
