(* e2e: the end-to-end, layer-attributed benchmark.

     e2e.exe run     [--seed N] [--workload NAME] [--out FILE] [--seconds S] [--smoke]
     e2e.exe trace   [--seed N] [--workload NAME] [--smoke]
     e2e.exe compare A.json B.json
     e2e.exe bench   --workload NAME --seed N --seconds S --trace 0|1

   [run] and [trace] re-execute this program as [bench], one child
   process per workload, so every workload starts from a fresh heap.
   [bench] prints, as its last stdout line, one JSON object with the
   keys correct, attempted, failed and metrics: the end-to-end metrics
   with --trace 0, the per-layer metrics with --trace 1. The metric
   names, units, directions and bounds live in BENCHMARK.json;
   README.md documents every metric. `e2e.exe worker` is a net runtime
   worker, started by the net cell. *)

(* ---------------------------------------------------------------- *)
(* Command line                                                       *)
(* ---------------------------------------------------------------- *)

type opts = {
  seed : int;
  workload : string option;
  seconds : float;
  smoke : bool;
  trace : bool;
  out : string option;
  results : string;
  benchmark : string;
  datalogd : string;
  files : string list;
}

let usage () =
  prerr_string
    "usage: e2e.exe run     [--seed N] [--workload NAME] [--out FILE] [--seconds S] [--smoke]\n\
    \       e2e.exe trace   [--seed N] [--workload NAME] [--smoke]\n\
    \       e2e.exe compare A.json B.json\n\
    \       e2e.exe bench   --workload NAME --seed N --seconds S --trace 0|1\n\
     common: --datalogd PATH  --results DIR (default bench/e2e/results)\n\
    \        --benchmark FILE (default BENCHMARK.json)\n";
  exit 2

let parse_opts args =
  let default_datalogd =
    Filename.concat (Filename.dirname Sys.executable_name) "../../bin/datalogd.exe"
  in
  let rec go o = function
    | [] -> o
    | "--seed" :: v :: rest -> go { o with seed = int_of_string v } rest
    | "--workload" :: v :: rest -> go { o with workload = Some v } rest
    | "--seconds" :: v :: rest -> go { o with seconds = float_of_string v } rest
    | "--trace" :: v :: rest -> go { o with trace = v = "1" } rest
    | "--out" :: v :: rest -> go { o with out = Some v } rest
    | "--results" :: v :: rest -> go { o with results = v } rest
    | "--benchmark" :: v :: rest -> go { o with benchmark = v } rest
    | "--datalogd" :: v :: rest -> go { o with datalogd = v } rest
    | "--smoke" :: rest -> go { o with smoke = true } rest
    | v :: rest when String.length v > 0 && v.[0] <> '-' -> go { o with files = o.files @ [ v ] } rest
    | v :: _ ->
      Printf.eprintf "e2e: unknown or incomplete option %s\n" v;
      usage ()
  in
  try
    let o =
      go
      {
        seed = 2026;
        workload = None;
        seconds = 30.;
        smoke = false;
        trace = false;
        out = None;
        results = "bench/e2e/results";
        benchmark = "BENCHMARK.json";
        datalogd = default_datalogd;
        files = [];
      }
      args
    in
    (* Smoke scale: one rep of each cell and one client cycle. *)
    if o.smoke then { o with seconds = 0. } else o
  with Failure _ -> usage ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let read_json path =
  match Json.read_file path with
  | exception (Sys_error _ | Json.Error _) ->
    Printf.eprintf "e2e: cannot read %s\n" path;
    exit 2
  | j -> j

(* The metrics BENCHMARK.json lists under [key] ("end_to_end" or
   "per_layer"), as JSON objects. *)
let benchmark_metrics o key = Json.to_list (Json.member key (read_json o.benchmark))

let name_of m = Json.to_str (Json.member "name" m)

(* ---------------------------------------------------------------- *)
(* bench: one workload in this process                                *)
(* ---------------------------------------------------------------- *)

let summary_json unit (m : Measure.summary) =
  Json.Obj
    [
      ("value", Json.Num m.value);
      ("unit", Json.Str unit);
      ("q1", Json.Num m.q1);
      ("q3", Json.Num m.q3);
      ("n", Json.Num (float_of_int m.n));
    ]

(* The daemon's set-up, [k] times: each daemon is spawned and waited for
   until its first full reply, when its peak RSS is read. The last one
   is kept to serve the load. Returns it, its connection, and the set-up
   seconds and peak RSS of every daemon. *)
let start_daemons o p ~dir ~k =
  let rec go i samples =
    let d, c, t = Serve_load.start ~datalogd:o.datalogd ~dir ~tag:(Printf.sprintf "d%d" i) p in
    let samples = (t, Serve_load.peak_rss_mb d) :: samples in
    if i = k then (d, c, List.split samples)
    else begin
      Serve.Client.close c;
      Serve_load.stop d;
      go (i + 1) samples
    end
  in
  go 1 []

(* The end-to-end metrics of one workload, tracing off. Set-up comes
   first: the batch set-up 5 times, then 5 daemons spawned one after
   another, each timed to its first full reply; the last one serves the
   load. Then, after one untimed warm-up round, rounds fill --seconds,
   at least [min_reps] of them. A round is one repetition of every cell,
   then one burst of [cycles_per_round] client cycles. Interleaving
   spreads every metric's samples over the whole run, so a slow spell of
   a shared host falls on all metrics alike rather than on whichever
   one ran during it. *)
let measure_e2e o (p : Inputs.prepared) ~dir tally =
  let w = p.Inputs.w in
  let count n = tally.Batch.attempted <- tally.Batch.attempted + n in
  let k = if o.smoke then 1 else 5 in
  let batch_setups =
    List.init k (fun _ ->
        Gc.compact ();
        fst (Measure.time (fun () -> Batch.setup p)))
  in
  count k;
  let s = Batch.setup p in
  Serve_load.stage ~dir p;
  let d, c, (daemon_setups, daemon_rss) = start_daemons o p ~dir ~k in
  count k;
  let rounds, final_ok =
    Fun.protect
      ~finally:(fun () ->
        Serve.Client.close c;
        Serve_load.stop d)
      (fun () ->
        let rounds =
          Serve_load.with_clients d p ~seed:o.seed (fun clients ->
              let round () =
                let reps = Batch.round tally p s Batch.cells in
                let b = Serve_load.burst p clients ~cycles:w.Inputs.cycles_per_round in
                count (List.length b.Serve_load.samples);
                List.iter (Batch.fail tally) b.Serve_load.failures;
                (reps, b)
              in
              if not o.smoke then ignore (round ());
              Measure.fill ~seconds:o.seconds ~min:w.Inputs.min_reps round)
        in
        count 1;
        (rounds, fst (Serve_load.final_check c p)))
  in
  if not final_ok then Batch.fail tally "serve: final answer differs from the sequential model";
  let rng = Workload.Rng.create ~seed:o.seed in
  let median xs = Measure.bootstrap ~rng Measure.median xs in
  let cell c = List.filter_map (fun (reps, _) -> Option.join (List.assoc_opt c reps)) rounds in
  let bursts = List.map snd rounds in
  let pct kinds q = Measure.bootstrap ~rng (Measure.percentile q) (Serve_load.latencies bursts kinds) in
  let writes = [ Serve_load.Update; Serve_load.Retract ] in
  [
    ("setup_s", Measure.add (median batch_setups) (median daemon_setups));
    ("peak_rss_mb", Measure.single (Measure.peak_rss_mb "self"));
    (* Not read after the load: the daemon's RSS keeps growing with the
       requests it serves, so it would follow the daemon's speed. *)
    ("daemon_rss_mb", median daemon_rss);
    ("ops_per_s", Serve_load.throughput ~rng bursts);
    ("live_query_p50_ms", pct [ Serve_load.Live ] 0.5);
    ("live_query_p90_ms", pct [ Serve_load.Live ] 0.9);
    ("update_p50_ms", pct writes 0.5);
    ("update_p90_ms", pct writes 0.9);
    ("full_query_p50_ms", pct [ Serve_load.Full ] 0.5);
  ]
  @ List.map (fun c -> (Batch.cell_name c ^ "_s", median (cell c))) Batch.cells

let layers_table (sp : Spans.t) =
  List.map
    (fun (layer, n, self) ->
      Json.Obj [ ("layer", Json.Str layer); ("spans", Json.Num (float_of_int n)); ("self_s", Json.Num self) ])
    (Spans.layers sp)

let bench o =
  let name = match o.workload with Some n -> n | None -> usage () in
  let w =
    match Inputs.find ~smoke:o.smoke name with
    | Some w -> w
    | None ->
      Printf.eprintf "e2e: unknown workload %s\n" name;
      exit 2
  in
  if not (Sys.file_exists o.datalogd) then begin
    Printf.eprintf "e2e: no datalogd at %s (build it, or pass --datalogd)\n" o.datalogd;
    exit 2
  end;
  let expected = benchmark_metrics o (if o.trace then "per_layer" else "end_to_end") in
  let dir = Filename.concat o.results (Printf.sprintf "tmp-%d" (Unix.getpid ())) in
  mkdir_p dir;
  let cleanup () =
    Array.iter (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ()) (Sys.readdir dir);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  in
  let p = Inputs.prepare w ~seed:o.seed in
  let tally, measured, extra =
    Fun.protect ~finally:cleanup (fun () ->
        if o.trace then begin
          let r = Layers.run ~datalogd:o.datalogd ~dir ~smoke:o.smoke p ~seed:o.seed in
          r.tally.Batch.attempted <- r.tally.Batch.attempted + 1;
          if not r.reconcile_ok then
            Batch.fail r.tally "trace: spans do not reconcile with wall time within 10%";
          Json.write_file (Filename.concat o.results ("trace-" ^ name ^ ".json")) (Spans.to_chrome r.spans);
          ( r.tally,
            List.map (fun (k, v) -> (k, Measure.single v)) r.metrics,
            [ ("layers", Json.Arr (layers_table r.spans)) ] )
        end
        else
          let tally = Batch.tally () in
          (tally, measure_e2e o p ~dir tally, []))
  in
  (* Report exactly the metrics BENCHMARK.json lists, in its order and
     units; one it lists that was not measured, or that came out as no
     finite number, is a failure. *)
  let metrics =
    List.filter_map
      (fun m ->
        let k = name_of m in
        match List.assoc_opt k measured with
        | Some (s : Measure.summary) when Float.is_finite s.value ->
          Some (k, Json.to_str (Json.member "unit" m), s)
        | Some _ ->
          Batch.fail tally (k ^ ": not a finite number");
          None
        | None ->
          Batch.fail tally (k ^ ": not measured");
          None)
      expected
  in
  List.iter (fun e -> Printf.eprintf "e2e: %s: FAILED %s\n" name e) (List.rev tally.Batch.errors);
  List.iter
    (fun (k, unit, (m : Measure.summary)) ->
      Printf.printf "%s %s %.6g %s %d %.6g %.6g\n" name k m.value unit m.n m.q1 m.q3)
    metrics;
  let detail =
    Json.Obj
      ([
         ("workload", Json.Str name);
         ("seed", Json.Num (float_of_int o.seed));
         ("nprocs", Json.Num (float_of_int Batch.nprocs));
         ("smoke", Json.Bool o.smoke);
         ("attempted", Json.Num (float_of_int tally.attempted));
         ("failed", Json.Num (float_of_int tally.failed));
         ("errors", Json.Arr (List.map (fun e -> Json.Str e) (List.rev tally.errors)));
         ("metrics", Json.Obj (List.map (fun (k, unit, m) -> (k, summary_json unit m)) metrics));
       ]
      @ extra)
  in
  if o.trace then Json.write_file (Filename.concat o.results ("layers-" ^ name ^ ".json")) detail;
  Option.iter (fun path -> Json.write_file path detail) o.out;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (tally.failed = 0));
            ("attempted", Json.Num (float_of_int tally.attempted));
            ("failed", Json.Num (float_of_int tally.failed));
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (k, unit, (m : Measure.summary)) ->
                     (k, Json.Obj [ ("value", Json.Num m.value); ("unit", Json.Str unit) ]))
                   metrics) );
          ]))

(* ---------------------------------------------------------------- *)
(* run and trace: one child per workload                              *)
(* ---------------------------------------------------------------- *)

let selected o =
  match o.workload with
  | None -> Inputs.all ~smoke:o.smoke
  | Some n -> (
    match Inputs.find ~smoke:o.smoke n with
    | Some w -> [ w ]
    | None ->
      Printf.eprintf "e2e: unknown workload %s\n" n;
      exit 2)

(* Run [bench] for one workload in a child process, its stdout
   discarded (the detail file carries everything), and read the detail
   back. *)
let child o (w : Inputs.t) ~trace =
  let out = Filename.concat o.results (Printf.sprintf "child-%s.json" w.name) in
  let args =
    [
      Sys.executable_name; "bench"; "--workload"; w.name; "--seed"; string_of_int o.seed;
      "--seconds"; Printf.sprintf "%g" o.seconds; "--trace"; (if trace then "1" else "0");
      "--out"; out; "--results"; o.results; "--datalogd"; o.datalogd; "--benchmark"; o.benchmark;
    ]
    @ if o.smoke then [ "--smoke" ] else []
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid = Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin devnull Unix.stderr in
  Unix.close devnull;
  let rec wait () =
    match Unix.waitpid [] pid with
    | _, status -> status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  let status = wait () in
  match (status, Json.read_file out) with
  | Unix.WEXITED 0, j ->
    Sys.remove out;
    Some j
  | _ | (exception (Sys_error _ | Json.Error _)) ->
    Printf.eprintf "e2e: workload %s did not complete\n" w.name;
    None

let print_metric workload (name, m) =
  Printf.printf "%-14s %-22s %12.6g %-8s %3.0f %12.6g %12.6g\n" workload name
    (Json.to_num (Json.member "value" m))
    (Json.to_str (Json.member "unit" m))
    (Json.to_num (Json.member "n" m))
    (Json.to_num (Json.member "q1" m))
    (Json.to_num (Json.member "q3" m))

let orchestrate o ~trace =
  mkdir_p o.results;
  let expected = List.map name_of (benchmark_metrics o (if trace then "per_layer" else "end_to_end")) in
  Printf.printf "%-14s %-22s %12s %-8s %3s %12s %12s\n" "workload" "metric" "median" "unit" "n" "q1" "q3";
  let results =
    List.map
      (fun (w : Inputs.t) ->
        let r = child o w ~trace in
        Option.iter
          (fun j -> List.iter (print_metric w.name) (Json.to_assoc (Json.member "metrics" j)))
          r;
        (w, r))
      (selected o)
  in
  let problems =
    List.concat_map
      (fun ((w : Inputs.t), r) ->
        match r with
        | None -> [ w.name ^ ": no result" ]
        | Some j ->
          let have = Json.to_assoc (Json.member "metrics" j) in
          let failed = Json.to_num (Json.member "failed" j) in
          List.filter_map
            (fun m ->
              if List.mem_assoc m have then None
              else Some (Printf.sprintf "%s: metric %s missing" w.name m))
            expected
          @ (if failed > 0. then
               [ Printf.sprintf "%s: %.0f of %.0f operations failed" w.name failed
                   (Json.to_num (Json.member "attempted" j)) ]
             else []))
      results
  in
  (results, problems)

let finish problems =
  List.iter (fun p -> Printf.eprintf "e2e: FAIL %s\n" p) problems;
  exit (if problems = [] then 0 else 1)

let run o =
  let results, problems = orchestrate o ~trace:false in
  let out =
    match o.out with
    | Some f -> f
    | None -> Filename.concat o.results (Printf.sprintf "run-%d.json" o.seed)
  in
  Json.write_file out
    (Json.Obj
       [
         ("seed", Json.Num (float_of_int o.seed));
         ("nprocs", Json.Num (float_of_int Batch.nprocs));
         ("seconds", Json.Num o.seconds);
         ("smoke", Json.Bool o.smoke);
         ( "workloads",
           Json.Obj
             (List.filter_map (fun ((w : Inputs.t), r) -> Option.map (fun j -> (w.name, j)) r) results) );
       ]);
  Printf.printf "wrote %s\n" out;
  finish problems

let trace o =
  let results, problems = orchestrate o ~trace:true in
  List.iter
    (fun ((w : Inputs.t), r) ->
      Option.iter
        (fun j ->
          Printf.printf "\n%s: per-layer self time (trace-%s.json loads in Perfetto)\n" w.name w.name;
          Printf.printf "  %-14s %8s %12s\n" "layer" "spans" "self_s";
          List.iter
            (fun l ->
              Printf.printf "  %-14s %8.0f %12.6f\n"
                (Json.to_str (Json.member "layer" l))
                (Json.to_num (Json.member "spans" l))
                (Json.to_num (Json.member "self_s" l)))
            (Json.to_list (Json.member "layers" j));
          let m k = Json.to_num (Json.member "value" (Json.member k (Json.member "metrics" j))) in
          Printf.printf "  trace.overhead_frac %.4f  trace.reconcile_err %.4f\n"
            (m "trace.overhead_frac") (m "trace.reconcile_err"))
        r)
    results;
  finish problems

(* ---------------------------------------------------------------- *)
(* compare                                                            *)
(* ---------------------------------------------------------------- *)

let compare_runs o =
  let a_file, b_file = match o.files with [ a; b ] -> (a, b) | _ -> usage () in
  let bounds =
    List.map
      (fun m ->
        (name_of m, Json.to_str (Json.member "better" m), Json.to_num (Json.member "bound" m)))
      (benchmark_metrics o "end_to_end")
  in
  let a = Json.member "workloads" (read_json a_file) and b = Json.member "workloads" (read_json b_file) in
  let workloads =
    let names side = List.map fst (Json.to_assoc side) in
    names a @ List.filter (fun w -> not (List.mem w (names a))) (names b)
  in
  let metric side w k = Json.member k (Json.member "metrics" (Json.member w side)) in
  let num m k = Json.to_num (Json.member k m) in
  let spread m = (num m "q3" -. num m "q1") /. num m "value" in
  let gating = ref 0 in
  Printf.printf "%-14s %-18s %10s %21s %10s %21s %8s  %s\n" "workload" "metric" "A" "A q1..q3" "B"
    "B q1..q3" "change" "verdict";
  List.iter
    (fun w ->
      List.iter
        (fun (k, better, bound) ->
          let ma = metric a w k and mb = metric b w k in
          let va = num ma "value" and vb = num mb "value" in
          if not (Float.is_finite va && Float.is_finite vb && va > 0.) then begin
            (* A crashed or partial run must not compare clean. *)
            incr gating;
            Printf.printf "%-14s %-18s missing\n" w k
          end
          else begin
            let change = (vb -. va) /. va in
            let worsening = if better = "higher" then -.change else change in
            let verdict =
              if spread ma > bound || spread mb > bound then "unresolved"
              else if worsening > bound then (incr gating; "worse")
              else if -.worsening > bound then "better"
              else "within"
            in
            Printf.printf "%-14s %-18s %10.4g %10.4g..%-10.4g %10.4g %10.4g..%-10.4g %+7.1f%%  %s\n" w k va
              (num ma "q1") (num ma "q3") vb (num mb "q1") (num mb "q3") (100. *. change) verdict
          end)
        bounds;
      (* Ungated: a faster sequential engine would read as a parallel
         regression if these ratios were gated. *)
      let ratio side k = num (metric side w k) "value" /. num (metric side w "seq_s") "value" in
      Printf.printf "%-14s ratios to seq_s (A -> B, ungated):" w;
      List.iter
        (fun k -> Printf.printf " %s %.2f->%.2f" k (ratio a k) (ratio b k))
        [ "sim_s"; "domains_s"; "domains_auto_s"; "net_s" ];
      print_newline ())
    workloads;
  exit (if !gating > 0 then 1 else 0)

let () =
  (* A dead peer (the daemon) must surface as an error, not kill the
     harness. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match Array.to_list Sys.argv with
  | _ :: "run" :: args -> run (parse_opts args)
  | _ :: "trace" :: args -> trace (parse_opts args)
  | _ :: "compare" :: args -> compare_runs (parse_opts args)
  | _ :: "bench" :: args -> bench (parse_opts args)
  | [ _; "worker"; "--addr"; addr; "--worker"; worker; "--inc"; inc ] -> (
    (* A net runtime worker; see [Batch.net_run]. *)
    match (int_of_string_opt worker, int_of_string_opt inc) with
    | Some worker, Some inc -> exit (Net.Net_runtime.worker_main ~addr ~worker ~inc)
    | _ -> usage ())
  | _ -> usage ()
