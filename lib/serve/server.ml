open Datalog
open Pardatalog

let src = Logs.Src.create "datalogd.server" ~doc:"datalogd daemon"

module Log = (val Logs.src_log src : Logs.LOG)

type addr = Unix_sock of string | Tcp of int

let pp_addr ppf = function
  | Unix_sock path -> Format.fprintf ppf "unix:%s" path
  | Tcp port -> Format.fprintf ppf "tcp:127.0.0.1:%d" port

type config = {
  addr : addr;
  nprocs : int;
  runtime : [ `Sim | `Domain ];
  seed : int;
  max_sessions : int;
  max_inflight : int;
  queue_depth : int;
  tenant_inflight : int;
  default_deadline_ms : int option;
  deadline_cap_ms : int option;
  max_store_cap : int option;
  cache_size : int;
  retry_after_ms : int;
  drain_grace : float;
  hold_eval_ms : int;
  fault : Fault.plan;
}

let default_config addr =
  {
    addr;
    nprocs = 4;
    runtime = `Domain;
    seed = 0;
    max_sessions = 64;
    max_inflight = 4;
    queue_depth = 8;
    tenant_inflight = 2;
    default_deadline_ms = None;
    deadline_cap_ms = Some 60_000;
    max_store_cap = None;
    cache_size = 256;
    retry_after_ms = 25;
    drain_grace = 5.0;
    hold_eval_ms = 0;
    fault = Fault.none;
  }

let validate_config c =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  if c.nprocs < 1 then fail "nprocs must be >= 1, got %d" c.nprocs
  else if c.max_sessions < 1 then
    fail "max-sessions must be >= 1, got %d" c.max_sessions
  else if c.max_inflight < 1 then
    fail "max-inflight must be >= 1, got %d" c.max_inflight
  else if c.queue_depth < 0 then
    fail "queue-depth must be >= 0, got %d" c.queue_depth
  else if c.tenant_inflight < 1 then
    fail "tenant-inflight must be >= 1, got %d" c.tenant_inflight
  else if c.cache_size < 0 then
    fail "idempotency-cache must be >= 0, got %d" c.cache_size
  else if c.retry_after_ms < 1 then
    fail "retry-after-ms must be >= 1, got %d" c.retry_after_ms
  else if c.drain_grace < 0.0 then
    fail "drain-grace must be >= 0, got %g" c.drain_grace
  else if c.hold_eval_ms < 0 then
    fail "hold-eval-ms must be >= 0, got %d" c.hold_eval_ms
  else
    match
      List.find_opt
        (fun (_, v) ->
          match v with Some ms -> ms < 1 | None -> false)
        [
          ("default-deadline-ms", c.default_deadline_ms);
          ("deadline-cap-ms", c.deadline_cap_ms);
          ("max-store", c.max_store_cap);
        ]
    with
    | Some (name, Some v) -> fail "%s must be >= 1, got %d" name v
    | _ -> Ok ()

(* ---------------------------------------------------------------- *)
(* State                                                             *)
(* ---------------------------------------------------------------- *)

(* A resident dataset. [ds_edb] is swapped, never mutated in place:
   FACTS and UPDATE build a copy with the changes and replace the
   pointer, so a query that grabbed the previous value keeps reading an
   immutable snapshot while loads proceed.

   [ds_live] is the dataset's resident maintenance session (protocol
   v2): opened lazily by the first UPDATE/RETRACT or live QUERY, kept
   across requests so each batch pays only the incremental cost.
   Session handles are single-threaded, so every access happens under
   [ds_lock]; [ds_lock] is always taken outside the server lock, never
   inside it. *)
type live = {
  lv_session : Session.t;
  lv_derived : string list;  (* original derived predicate names *)
}

type dataset = {
  ds_program : Program.t;
  ds_rules : int;
  mutable ds_edb : Database.t;
  ds_lock : Mutex.t;
  mutable ds_live : live option;
}

type cache_entry = In_flight | Done of string list

type session = {
  s_id : int;
  s_fd : Unix.file_descr;
  mutable s_tenant : string;
  mutable s_busy : bool;
}

type drain_result = {
  drained_sessions : int;
  forced_sessions : int;
  replies_busy : int;
  queries_ok : int;
  queries_partial : int;
}

type t = {
  cfg : config;
  metrics : Obs.Metrics.t;
  lsock : Unix.file_descr;
  sock_path : string option;  (* unlink on close *)
  stop_rd : Unix.file_descr;
  stop_wr : Unix.file_descr;
  lock : Mutex.t;
  slot_free : Condition.t;
  mutable draining : bool;
  mutable inflight : int;
  mutable waiting : int;
  tenants : (string, int) Hashtbl.t;
  sessions : (int, session) Hashtbl.t;
  mutable session_threads : Thread.t list;
  mutable next_session : int;
  datasets : (string, dataset) Hashtbl.t;
  cache : (string, cache_entry) Hashtbl.t;
  cache_order : string Queue.t;
  mutable accept_thread : Thread.t option;
  mutable drained : drain_result option;
}

let metrics t = t.metrics

(* Counter / gauge names — also the contract of the STATS reply. *)
let c_accepted = "serve.accepted"
let c_rejected = "serve.rejected_busy"
let c_ok = "serve.queries_ok"
let c_partial = "serve.queries_partial"
let c_updates = "serve.updates_ok"
let c_replays = "serve.replays"
let c_retry_inflight = "serve.retry_inflight"
let c_errors = "serve.protocol_errors"
let c_drains = "serve.drains"
let g_sessions = "serve.active_sessions"
let g_inflight = "serve.inflight"
let g_queue = "serve.queue_depth"

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let set_gauges_locked t =
  Obs.Metrics.set_gauge t.metrics g_sessions (Hashtbl.length t.sessions);
  Obs.Metrics.set_gauge t.metrics g_inflight t.inflight;
  Obs.Metrics.set_gauge t.metrics g_queue t.waiting

(* ---------------------------------------------------------------- *)
(* Socket plumbing                                                   *)
(* ---------------------------------------------------------------- *)

let bind_listener addr =
  match addr with
  | Tcp port ->
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    (try
       Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
       Unix.listen fd 64;
       Ok (fd, None)
     with Unix.Unix_error (e, _, _) ->
       Unix.close fd;
       Error
         (Printf.sprintf "cannot listen on 127.0.0.1:%d: %s" port
            (Unix.error_message e)))
  | Unix_sock path ->
    if String.length path >= 104 then
      Error (Printf.sprintf "socket path too long (%d bytes): %s"
               (String.length path) path)
    else begin
      (* A stale socket file from a crashed daemon would block restart;
         reclaim it only if nothing answers on it. *)
      (if Sys.file_exists path then
         let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
         let live =
           try
             Unix.connect probe (Unix.ADDR_UNIX path);
             true
           with Unix.Unix_error _ -> false
         in
         Unix.close probe;
         if not live then (try Unix.unlink path with Unix.Unix_error _ -> ()));
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      try
        Unix.bind fd (Unix.ADDR_UNIX path);
        Unix.listen fd 64;
        Ok (fd, Some path)
      with Unix.Unix_error (e, _, _) ->
        Unix.close fd;
        Error
          (Printf.sprintf "cannot listen on %s: %s" path
             (Unix.error_message e))
    end

let write_line oc line =
  output_string oc line;
  output_char oc '\n';
  flush oc

let write_lines oc lines =
  List.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    lines;
  flush oc

(* ---------------------------------------------------------------- *)
(* The idempotency cache                                             *)
(* ---------------------------------------------------------------- *)

let cache_key ~tenant ~id = tenant ^ "\x00" ^ id

(* FIFO eviction over completed entries; in-flight markers are removed
   explicitly and never evicted. Called with the lock held. *)
let cache_store_locked t key lines =
  if t.cfg.cache_size > 0 then begin
    Hashtbl.replace t.cache key (Done lines);
    Queue.push key t.cache_order;
    while Queue.length t.cache_order > t.cfg.cache_size do
      let victim = Queue.pop t.cache_order in
      match Hashtbl.find_opt t.cache victim with
      | Some (Done _) -> Hashtbl.remove t.cache victim
      | _ -> ()
    done
  end

(* ---------------------------------------------------------------- *)
(* Query evaluation                                                  *)
(* ---------------------------------------------------------------- *)

let clamp_opt ~cap v =
  match (v, cap) with
  | None, c -> c
  | Some v, None -> Some v
  | Some v, Some c -> Some (min v c)

let string_of_reject r = Format.asprintf "%a" Plan.pp_reject r

let build_rewrite cfg (q : Protocol.query) ~nprocs program edb =
  match q.q_scheme with
  | `General -> (
    match Strategy.general ~seed:cfg.seed ~nprocs program with
    | Ok rw -> Ok ("general", rw)
    | Error e -> Error e)
  | `Auto -> (
    let profile = Check.Costmodel.profile_of_db edb in
    let outcome = Check.Planner.suggest ~profile ~nprocs ~seed:cfg.seed program in
    match outcome.Check.Planner.plan with
    | None -> Error "no scheme verifies for this program (scheme=auto)"
    | Some plan -> (
      match Plan.to_rewrite plan program with
      | Ok rw -> Ok (Plan.scheme_name plan.Plan.scheme, rw)
      | Error r -> Error (string_of_reject r)))

(* RESULT head, optional ROW lines, END — shared by the from-scratch
   and live query paths. *)
let result_lines (q : Protocol.query) ?stats ~scheme ~preds answers =
  let count =
    List.fold_left (fun acc p -> acc + Database.cardinal answers p) 0 preds
  in
  let rows =
    if not q.q_rows then []
    else
      List.concat_map
        (fun pred ->
          match Database.find answers pred with
          | None -> []
          | Some rel ->
            List.map
              (fun tuple ->
                Protocol.row (Format.asprintf "%s%a" pred Tuple.pp tuple))
              (Relation.sorted_elements rel))
        preds
  in
  (Protocol.result_head ?stats ~id:q.q_id ~rows:count ~scheme () :: rows)
  @ [ Protocol.end_of_result ~id:q.q_id ]

(* Build the reply lines of one query against an immutable dataset
   snapshot. Runs outside the server lock; everything it touches is
   either request-local or an immutable snapshot. *)
let evaluate cfg (q : Protocol.query) program edb =
  let nprocs =
    match q.q_nprocs with Some n -> min n 64 | None -> cfg.nprocs
  in
  let deadline_ms =
    clamp_opt ~cap:cfg.deadline_cap_ms
      (match q.q_deadline_ms with
       | Some d -> Some d
       | None -> cfg.default_deadline_ms)
  in
  let max_store = clamp_opt ~cap:cfg.max_store_cap q.q_max_store in
  match build_rewrite cfg q ~nprocs program edb with
  | Error msg -> [ Protocol.err ~code:"scheme" msg ]
  | Ok (scheme, rw) -> (
    let config =
      Run_config.(
        default
        |> with_deadline
             (Option.map (fun ms -> float_of_int ms /. 1000.) deadline_ms)
        |> with_max_store_rows max_store
        |> with_fault cfg.fault)
    in
    if cfg.hold_eval_ms > 0 then
      Unix.sleepf (float_of_int cfg.hold_eval_ms /. 1000.);
    let run () =
      match (q.q_runtime, cfg.runtime) with
      | `Sim, _ | `Default, `Sim -> Sim_runtime.run ~config rw ~edb
      | `Domain, _ | `Default, `Domain -> Domain_runtime.run ~config rw ~edb
    in
    match run () with
    | result ->
      let preds =
        match q.q_goal with
        | Some g -> [ g ]
        | None -> rw.Rewrite.derived
      in
      let answers = result.Sim_runtime.answers in
      let stats =
        if q.q_stats then
          Some (Stats.to_json ~scheme ~outcome:"ok" result.Sim_runtime.stats)
        else None
      in
      result_lines q ?stats ~scheme ~preds answers
    | exception Overload.Overload { reason; stats } ->
      let kind = Overload.reason_kind reason in
      let stats =
        if q.q_stats then Some (Stats.to_json ~scheme ~outcome:kind stats)
        else None
      in
      [
        Protocol.partial_head ?stats ~id:q.q_id ~reason:kind ~scheme ();
        Protocol.end_of_result ~id:q.q_id;
      ]
    | exception Sim_runtime.Round_budget_exceeded { stats; _ } ->
      let stats =
        if q.q_stats then
          Some (Stats.to_json ~scheme ~outcome:"round_budget" stats)
        else None
      in
      [
        Protocol.partial_head ?stats ~id:q.q_id ~reason:"round_budget" ~scheme
          ();
        Protocol.end_of_result ~id:q.q_id;
      ]
    | exception Plan.Rejected r ->
      [ Protocol.err ~code:"plan" (string_of_reject r) ])

(* ---------------------------------------------------------------- *)
(* Live sessions (UPDATE / RETRACT / QUERY live=true)                *)
(* ---------------------------------------------------------------- *)

let with_ds_lock ds f =
  Mutex.lock ds.ds_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock ds.ds_lock) f

(* Open (or reuse) the dataset's resident maintenance session. Called
   with [ds_lock] held. The session always runs the server's default
   runtime and processor count under the general scheme: a live model
   is a property of the dataset, not of any one request. *)
let live_session cfg ds =
  match ds.ds_live with
  | Some lv -> Ok lv
  | None -> (
    match Strategy.general ~seed:cfg.seed ~nprocs:cfg.nprocs ds.ds_program with
    | Error e -> Error e
    | Ok rw ->
      let config = Run_config.(default |> with_fault cfg.fault) in
      let session =
        match cfg.runtime with
        | `Sim -> Sim_runtime.open_session ~config rw ~edb:ds.ds_edb
        | `Domain -> Domain_runtime.open_session ~config rw ~edb:ds.ds_edb
      in
      let lv = { lv_session = session; lv_derived = rw.Rewrite.derived } in
      ds.ds_live <- Some lv;
      Ok lv)

(* A live query reads the session's maintained model instead of
   evaluating from scratch. [stats=true] is ignored here: per-run
   statistics belong to one-shot evaluations, and the session's
   cumulative counters surface only when it closes. Runs outside the
   server lock, under the dataset lock. *)
let evaluate_live cfg (q : Protocol.query) ds =
  with_ds_lock ds (fun () ->
      match live_session cfg ds with
      | Error msg -> [ Protocol.err ~code:"scheme" msg ]
      | Ok lv -> (
        match Session.model lv.lv_session with
        | answers ->
          let preds =
            match q.q_goal with Some g -> [ g ] | None -> lv.lv_derived
          in
          result_lines q ~scheme:"live" ~preds answers
        | exception Session.Closed _ ->
          ds.ds_live <- None;
          [ Protocol.err ~code:"session" "live session lost; retry" ]))

(* Fold one parsed update batch into the dataset: apply it to the
   resident session (incremental maintenance) and mirror the outcome's
   net base change (its tuples of non-derived predicates) into the
   registry EDB by copy-and-swap, so from-scratch queries and STATS
   see the same facts. Runs outside the server lock, under the dataset
   lock. *)
let evaluate_update cfg ~op (u : Protocol.update) updates ds =
  with_ds_lock ds (fun () ->
      match live_session cfg ds with
      | Error msg -> [ Protocol.err ~code:"scheme" msg ]
      | Ok lv -> (
        match Session.apply lv.lv_session (Update_batch.of_list updates) with
        | outcome ->
          let base =
            List.filter (fun (pred, _) -> not (List.mem pred lv.lv_derived))
          in
          let db = Database.copy ds.ds_edb in
          ignore (Database.remove_facts db (base outcome.Session.oc_removed));
          List.iter
            (fun (pred, t) -> ignore (Database.add_fact db pred t))
            (base outcome.Session.oc_added);
          ds.ds_edb <- db;
          [
            Printf.sprintf "OK %s prog=%s id=%s added=%d removed=%d" op
              u.Protocol.u_prog u.Protocol.u_id
              (List.length outcome.Session.oc_added)
              (List.length outcome.Session.oc_removed);
          ]
        | exception Session.Closed _ ->
          ds.ds_live <- None;
          [ Protocol.err ~code:"session" "live session lost; retry" ]
        | exception Overload.Overload { reason; _ } ->
          (* The session died mid-batch: drop it so the next request
             rebuilds from the (unpatched) registry EDB. *)
          ds.ds_live <- None;
          [ Protocol.err ~code:"overload" (Overload.reason_kind reason) ]
        | exception Invalid_argument msg ->
          (* Derived-predicate targets and wrong arities are rejected
             before any engine mutation, but stay conservative: rebuild
             on demand. *)
          ds.ds_live <- None;
          [ Protocol.err ~code:"update" msg ]))

(* ---------------------------------------------------------------- *)
(* Admission                                                         *)
(* ---------------------------------------------------------------- *)

type admission =
  | Admitted
  | Rejected of string  (* BUSY reason *)

(* Admission control for one query: a slot below [max_inflight], a
   bounded wait queue of [queue_depth], and a per-tenant in-flight cap.
   Blocking waiters are woken by query completion or by drain — never a
   silent hang. Called with the lock held; may release it while
   waiting. *)
let admit_locked t ~tenant =
  if t.draining then Rejected "draining"
  else if
    Option.value (Hashtbl.find_opt t.tenants tenant) ~default:0
    >= t.cfg.tenant_inflight
  then Rejected "tenant"
  else if t.inflight < t.cfg.max_inflight then begin
    t.inflight <- t.inflight + 1;
    Hashtbl.replace t.tenants tenant
      (Option.value (Hashtbl.find_opt t.tenants tenant) ~default:0 + 1);
    set_gauges_locked t;
    Admitted
  end
  else if t.waiting >= t.cfg.queue_depth then Rejected "queue"
  else begin
    t.waiting <- t.waiting + 1;
    set_gauges_locked t;
    while t.inflight >= t.cfg.max_inflight && not t.draining do
      Condition.wait t.slot_free t.lock
    done;
    t.waiting <- t.waiting - 1;
    if t.draining then begin
      set_gauges_locked t;
      Rejected "draining"
    end
    else begin
      t.inflight <- t.inflight + 1;
      Hashtbl.replace t.tenants tenant
        (Option.value (Hashtbl.find_opt t.tenants tenant) ~default:0 + 1);
      set_gauges_locked t;
      Admitted
    end
  end

let release_locked t ~tenant =
  t.inflight <- t.inflight - 1;
  (match Hashtbl.find_opt t.tenants tenant with
   | Some 1 | None -> Hashtbl.remove t.tenants tenant
   | Some n -> Hashtbl.replace t.tenants tenant (n - 1));
  set_gauges_locked t;
  Condition.signal t.slot_free

(* ---------------------------------------------------------------- *)
(* STATS                                                             *)
(* ---------------------------------------------------------------- *)

let stats_json t =
  locked t (fun () ->
      let buf = Buffer.create 512 in
      let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
      add "{\"schema\":1,\"kind\":\"datalogd-stats\",\"proto\":%d,"
        Protocol.version;
      add "\"draining\":%b," t.draining;
      add
        "\"gauges\":{\"active_sessions\":%d,\"inflight\":%d,\"queue_depth\":%d},"
        (Hashtbl.length t.sessions) t.inflight t.waiting;
      let c name = Obs.Metrics.counter t.metrics name in
      add
        "\"counters\":{\"accepted\":%d,\"rejected_busy\":%d,\"queries_ok\":%d,\"queries_partial\":%d,\"updates_ok\":%d,\"replays\":%d,\"retry_inflight\":%d,\"protocol_errors\":%d},"
        (c c_accepted) (c c_rejected) (c c_ok) (c c_partial) (c c_updates)
        (c c_replays) (c c_retry_inflight) (c c_errors);
      add "\"programs\":{";
      let names =
        List.sort compare
          (Hashtbl.fold (fun k _ acc -> k :: acc) t.datasets [])
      in
      List.iteri
        (fun i name ->
          let ds = Hashtbl.find t.datasets name in
          if i > 0 then add ",";
          add "\"%s\":{\"rules\":%d,\"facts\":%d}" name ds.ds_rules
            (Database.total_tuples ds.ds_edb))
        names;
      add "}}";
      Buffer.contents buf)

(* ---------------------------------------------------------------- *)
(* Dataset loading (also used for --load/--facts preloading)          *)
(* ---------------------------------------------------------------- *)

let load_program t name text =
  match Parser.program text with
  | Error e -> Error (Format.asprintf "%a" Parser.pp_error e)
  | Ok program -> (
    match Program.check program with
    | Error msg -> Error msg
    | Ok () ->
      let rules = List.length (Program.rules program) in
      locked t (fun () ->
          (match Hashtbl.find_opt t.datasets name with
           | Some ds ->
             (* Replacing the rules invalidates the maintained model;
                the next update or live query rebuilds the session. *)
             Hashtbl.replace t.datasets name
               { ds with ds_program = program; ds_rules = rules;
                 ds_live = None }
           | None ->
             Hashtbl.replace t.datasets name
               {
                 ds_program = program;
                 ds_rules = rules;
                 ds_edb = Database.create ();
                 ds_lock = Mutex.create ();
                 ds_live = None;
               });
          Ok rules))

let add_facts t name text =
  match Parser.tuples text with
  | Error e -> Error (Format.asprintf "%a" Parser.pp_error e)
  | Ok facts -> (
    match locked t (fun () -> Hashtbl.find_opt t.datasets name) with
    | None -> Error (Printf.sprintf "no program named %s; LOAD it first" name)
    | Some ds ->
      (* Per-dataset EDB writers (FACTS and UPDATE/RETRACT) serialize
         on [ds_lock]; readers only ever follow the swapped pointer. *)
      with_ds_lock ds (fun () ->
          let db = Database.copy ds.ds_edb in
          let added =
            List.fold_left
              (fun acc (pred, tuple) ->
                match Database.add_fact db pred tuple with
                | true -> acc + 1
                | false -> acc
                | exception Invalid_argument msg -> ignore msg; acc)
              0 facts
          in
          ds.ds_edb <- db;
          (* A bulk load invalidates the maintained model; the next
             update or live query rebuilds the session from the new
             EDB. *)
          ds.ds_live <- None;
          Ok (added, Database.total_tuples db)))

(* ---------------------------------------------------------------- *)
(* Sessions                                                          *)
(* ---------------------------------------------------------------- *)

let read_payload ic =
  let buf = Buffer.create 256 in
  let rec go n =
    if n > Protocol.max_payload_lines then Error "payload too large"
    else
      match input_line ic with
      | "." -> Ok (Buffer.contents buf)
      | line ->
        Buffer.add_string buf line;
        Buffer.add_char buf '\n';
        go (n + 1)
      | exception End_of_file -> Error "connection closed mid-payload"
  in
  go 0

(* The admission verdict shared by QUERY, UPDATE and RETRACT: replay a
   completed id, RETRY a duplicate of an in-flight one, reject unknown
   programs, then admission-control and mark the id in flight. [found]
   maps the dataset to whatever the caller's evaluation needs. *)
let admission_verdict t session ~key ~prog ~found =
  let tenant = session.s_tenant in
  locked t (fun () ->
      match Hashtbl.find_opt t.cache key with
      | Some (Done lines) -> `Replay lines
      | Some In_flight -> `In_flight
      | None -> (
        match Hashtbl.find_opt t.datasets prog with
        | None -> `Unknown_prog
        | Some ds -> (
          match admit_locked t ~tenant with
          | Rejected reason -> `Busy reason
          | Admitted ->
            session.s_busy <- true;
            if t.cfg.cache_size > 0 then Hashtbl.replace t.cache key In_flight;
            `Run (found ds))))

(* Classify finished reply lines, settle the idempotency cache (ERR
   replies are never cached — the client may retry the id) and write
   them out. [ok_counter] is bumped for a successful head line. *)
let settle_and_reply t oc ~ok_counter key lines =
  (match lines with
   | first :: _ when String.length first >= 3 && String.sub first 0 3 = "ERR"
     ->
     Obs.Metrics.incr t.metrics c_errors;
     locked t (fun () -> Hashtbl.remove t.cache key)
   | first :: _
     when String.length first >= 7 && String.sub first 0 7 = "PARTIAL" ->
     Obs.Metrics.incr t.metrics c_partial;
     locked t (fun () -> cache_store_locked t key lines)
   | _ ->
     Obs.Metrics.incr t.metrics ok_counter;
     locked t (fun () -> cache_store_locked t key lines));
  write_lines oc lines

let handle_query t session oc (q : Protocol.query) =
  let tenant = session.s_tenant in
  let key = cache_key ~tenant ~id:q.q_id in
  let found ds =
    if q.q_live then `Live ds else `Scratch (ds.ds_program, ds.ds_edb)
  in
  match admission_verdict t session ~key ~prog:q.q_prog ~found with
  | `Replay lines ->
    Obs.Metrics.incr t.metrics c_replays;
    write_lines oc lines
  | `In_flight ->
    Obs.Metrics.incr t.metrics c_retry_inflight;
    write_line oc
      (Protocol.retry ~id:q.q_id ~retry_after_ms:t.cfg.retry_after_ms)
  | `Unknown_prog ->
    Obs.Metrics.incr t.metrics c_errors;
    write_line oc
      (Protocol.err ~code:"unknown-prog"
         (Printf.sprintf "no program named %s; LOAD it first" q.q_prog))
  | `Busy reason ->
    Obs.Metrics.incr t.metrics c_rejected;
    write_line oc
      (Protocol.busy ~id:q.q_id ~reason ~retry_after_ms:t.cfg.retry_after_ms
         ())
  | `Run target ->
    let lines =
      Fun.protect
        ~finally:(fun () ->
          locked t (fun () ->
              session.s_busy <- false;
              release_locked t ~tenant))
        (fun () ->
          match target with
          | `Scratch (program, edb) -> evaluate t.cfg q program edb
          | `Live ds -> evaluate_live t.cfg q ds)
    in
    settle_and_reply t oc ~ok_counter:c_ok key lines

let handle_update t session oc ~op ~default (u : Protocol.update) text =
  match Protocol.parse_updates ~default text with
  | Error msg ->
    Obs.Metrics.incr t.metrics c_errors;
    write_line oc (Protocol.err ~code:"parse" msg)
  | Ok updates -> (
    let tenant = session.s_tenant in
    let key = cache_key ~tenant ~id:u.Protocol.u_id in
    match
      admission_verdict t session ~key ~prog:u.Protocol.u_prog
        ~found:(fun ds -> ds)
    with
    | `Replay lines ->
      Obs.Metrics.incr t.metrics c_replays;
      write_lines oc lines
    | `In_flight ->
      Obs.Metrics.incr t.metrics c_retry_inflight;
      write_line oc
        (Protocol.retry ~id:u.Protocol.u_id
           ~retry_after_ms:t.cfg.retry_after_ms)
    | `Unknown_prog ->
      Obs.Metrics.incr t.metrics c_errors;
      write_line oc
        (Protocol.err ~code:"unknown-prog"
           (Printf.sprintf "no program named %s; LOAD it first"
              u.Protocol.u_prog))
    | `Busy reason ->
      Obs.Metrics.incr t.metrics c_rejected;
      write_line oc
        (Protocol.busy ~id:u.Protocol.u_id ~reason
           ~retry_after_ms:t.cfg.retry_after_ms ())
    | `Run ds ->
      let lines =
        Fun.protect
          ~finally:(fun () ->
            locked t (fun () ->
                session.s_busy <- false;
                release_locked t ~tenant))
          (fun () -> evaluate_update t.cfg ~op u updates ds)
      in
      settle_and_reply t oc ~ok_counter:c_updates key lines)

let session_loop t session =
  let ic = Unix.in_channel_of_descr session.s_fd in
  let oc = Unix.out_channel_of_descr session.s_fd in
  let bail = ref false in
  (try
     write_line oc Protocol.greeting;
     while not !bail do
       match input_line ic with
       | exception End_of_file -> bail := true
       | line ->
         (match Protocol.parse_request line with
          | Error msg ->
            Obs.Metrics.incr t.metrics c_errors;
            write_line oc (Protocol.err ~code:"proto" msg)
          | Ok (Hello tenant) ->
            (match tenant with
             | Some name -> session.s_tenant <- name
             | None -> ());
            write_line oc
              (Printf.sprintf "OK hello proto=%d tenant=%s" Protocol.version
                 session.s_tenant)
          | Ok Ping -> write_line oc "PONG"
          | Ok Quit ->
            write_line oc (Protocol.bye ~reason:"client");
            bail := true
          | Ok Stats -> write_line oc ("STATS " ^ stats_json t)
          | Ok (Load name) -> (
            match read_payload ic with
            | Error msg ->
              Obs.Metrics.incr t.metrics c_errors;
              write_line oc (Protocol.err ~code:"proto" msg);
              bail := true
            | Ok text -> (
              match load_program t name text with
              | Ok rules ->
                write_line oc
                  (Printf.sprintf "OK load prog=%s rules=%d" name rules)
              | Error msg ->
                Obs.Metrics.incr t.metrics c_errors;
                write_line oc (Protocol.err ~code:"parse" msg)))
          | Ok (Facts name) -> (
            match read_payload ic with
            | Error msg ->
              Obs.Metrics.incr t.metrics c_errors;
              write_line oc (Protocol.err ~code:"proto" msg);
              bail := true
            | Ok text -> (
              match add_facts t name text with
              | Ok (added, total) ->
                write_line oc
                  (Printf.sprintf "OK facts prog=%s tuples=%d total=%d" name
                     added total)
              | Error msg ->
                Obs.Metrics.incr t.metrics c_errors;
                write_line oc (Protocol.err ~code:"parse" msg)))
          | Ok (Update u) -> (
            match read_payload ic with
            | Error msg ->
              Obs.Metrics.incr t.metrics c_errors;
              write_line oc (Protocol.err ~code:"proto" msg);
              bail := true
            | Ok text ->
              handle_update t session oc ~op:"update" ~default:Delta.Insert u
                text)
          | Ok (Retract u) -> (
            match read_payload ic with
            | Error msg ->
              Obs.Metrics.incr t.metrics c_errors;
              write_line oc (Protocol.err ~code:"proto" msg);
              bail := true
            | Ok text ->
              handle_update t session oc ~op:"retract" ~default:Delta.Delete u
                text)
          | Ok (Query q) -> handle_query t session oc q);
         (* Drain notice: in-flight work above has finished; tell the
            client why the connection is going away, then leave. *)
         if (not !bail) && locked t (fun () -> t.draining) then begin
           write_line oc (Protocol.bye ~reason:"draining");
           bail := true
         end
     done
   with Sys_error _ | Unix.Unix_error _ -> ());
  (try Unix.shutdown session.s_fd Unix.SHUTDOWN_ALL
   with Unix.Unix_error _ -> ());
  (try Unix.close session.s_fd with Unix.Unix_error _ -> ());
  locked t (fun () ->
      Hashtbl.remove t.sessions session.s_id;
      set_gauges_locked t)

(* ---------------------------------------------------------------- *)
(* Accept loop and lifecycle                                         *)
(* ---------------------------------------------------------------- *)

let accept_loop t =
  let continue = ref true in
  while !continue do
    match Unix.select [ t.lsock; t.stop_rd ] [] [] (-1.0) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, _, _ ->
      if List.mem t.stop_rd readable then continue := false
      else if List.mem t.lsock readable then begin
        match Unix.accept t.lsock with
        | exception Unix.Unix_error _ -> ()
        | fd, _ ->
          let decision =
            locked t (fun () ->
                if t.draining then `Reject "draining"
                else if Hashtbl.length t.sessions >= t.cfg.max_sessions then
                  `Reject "sessions"
                else begin
                  let id = t.next_session in
                  t.next_session <- id + 1;
                  let session =
                    { s_id = id; s_fd = fd; s_tenant = "default";
                      s_busy = false }
                  in
                  Hashtbl.replace t.sessions id session;
                  set_gauges_locked t;
                  `Accept session
                end)
          in
          (match decision with
           | `Reject reason ->
             Obs.Metrics.incr t.metrics c_rejected;
             let oc = Unix.out_channel_of_descr fd in
             (try
                write_line oc
                  (Protocol.busy ~reason
                     ~retry_after_ms:t.cfg.retry_after_ms ())
              with Sys_error _ | Unix.Unix_error _ -> ());
             (try Unix.close fd with Unix.Unix_error _ -> ())
           | `Accept session ->
             Obs.Metrics.incr t.metrics c_accepted;
             let th = Thread.create (fun () -> session_loop t session) () in
             locked t (fun () ->
                 t.session_threads <- th :: t.session_threads))
      end
  done

let start ?metrics cfg =
  (* A peer that disappears mid-reply must surface as EPIPE in the
     session thread (caught there), not kill the process. *)
  (match Sys.signal Sys.sigpipe Sys.Signal_ignore with
   | (_ : Sys.signal_behavior) -> ()
   | exception Sys_error _ -> ());
  match validate_config cfg with
  | Error e -> Error e
  | Ok () -> (
    match bind_listener cfg.addr with
    | Error e -> Error e
    | Ok (lsock, sock_path) ->
      let stop_rd, stop_wr = Unix.pipe () in
      let metrics =
        match metrics with Some m -> m | None -> Obs.Metrics.create ()
      in
      let t =
        {
          cfg;
          metrics;
          lsock;
          sock_path;
          stop_rd;
          stop_wr;
          lock = Mutex.create ();
          slot_free = Condition.create ();
          draining = false;
          inflight = 0;
          waiting = 0;
          tenants = Hashtbl.create 8;
          sessions = Hashtbl.create 32;
          session_threads = [];
          next_session = 0;
          datasets = Hashtbl.create 8;
          cache = Hashtbl.create 64;
          cache_order = Queue.create ();
          accept_thread = None;
          drained = None;
        }
      in
      t.accept_thread <- Some (Thread.create accept_loop t);
      Log.info (fun m -> m "listening on %a" pp_addr cfg.addr);
      Ok t)

let request_stop t =
  (* Async-signal-safe enough for a handler: one write on a pipe. *)
  try ignore (Unix.write t.stop_wr (Bytes.of_string "x") 0 1)
  with Unix.Unix_error _ -> ()

let await t =
  match t.drained with
  | Some r -> r
  | None ->
    (match t.accept_thread with Some th -> Thread.join th | None -> ());
    (* Stop taking new work. *)
    let idle =
      locked t (fun () ->
          t.draining <- true;
          Condition.broadcast t.slot_free;
          Hashtbl.fold
            (fun _ s acc -> if s.s_busy then acc else s :: acc)
            t.sessions [])
    in
    (try Unix.close t.lsock with Unix.Unix_error _ -> ());
    (match t.sock_path with
     | Some path -> (try Unix.unlink path with Unix.Unix_error _ -> ())
     | None -> ());
    (* Idle sessions are parked in a blocking read with no request in
       flight: shutting the socket down wakes them with EOF and they
       exit through their normal path. Busy ones finish their request
       first — that is the drain guarantee. *)
    List.iter
      (fun s ->
        try Unix.shutdown s.s_fd Unix.SHUTDOWN_RECEIVE
        with Unix.Unix_error _ -> ())
      idle;
    let deadline = Obs.Clock.now () +. t.cfg.drain_grace in
    let rec wait_sessions () =
      let n = locked t (fun () -> Hashtbl.length t.sessions) in
      if n = 0 then 0
      else if Obs.Clock.now () >= deadline then n
      else begin
        Thread.delay 0.005;
        wait_sessions ()
      end
    in
    let leftover = wait_sessions () in
    let forced =
      locked t (fun () ->
          Hashtbl.fold (fun _ s acc -> s :: acc) t.sessions [])
    in
    List.iter
      (fun s ->
        try Unix.shutdown s.s_fd Unix.SHUTDOWN_ALL
        with Unix.Unix_error _ -> ())
      forced;
    let threads = locked t (fun () -> t.session_threads) in
    List.iter Thread.join threads;
    ignore leftover;
    (try Unix.close t.stop_rd with Unix.Unix_error _ -> ());
    (try Unix.close t.stop_wr with Unix.Unix_error _ -> ());
    Obs.Metrics.incr t.metrics c_drains;
    let c name = Obs.Metrics.counter t.metrics name in
    let r =
      {
        drained_sessions = List.length threads;
        forced_sessions = List.length forced;
        replies_busy = c c_rejected;
        queries_ok = c c_ok;
        queries_partial = c c_partial;
      }
    in
    t.drained <- Some r;
    r

let stop t =
  request_stop t;
  await t

let active_sessions t = locked t (fun () -> Hashtbl.length t.sessions)
