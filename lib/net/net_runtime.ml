open Datalog
module Fault = Pardatalog.Fault
module Stats = Pardatalog.Stats
module Overload = Pardatalog.Overload
module Rewrite = Pardatalog.Rewrite
module Run_config = Pardatalog.Run_config
module Strategy = Pardatalog.Strategy
module Plan = Pardatalog.Plan
module Backoff = Pardatalog.Backoff
module Sim_runtime = Pardatalog.Sim_runtime
module Session = Pardatalog.Session
module Processor = Pardatalog.Processor
module Pool = Pardatalog.Pool

let log_src = Logs.Src.create "pardatalog.net" ~doc:"Multi-process runtime"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* ------------------------------------------------------------------ *)
(* Addresses                                                          *)

type addr = Aunix of string | Atcp of int

let parse_addr s =
  match String.index_opt s ':' with
  | Some i ->
    let kind = String.sub s 0 i in
    let rest = String.sub s (i + 1) (String.length s - i - 1) in
    (match kind with
     | "unix" -> Aunix rest
     | "tcp" -> Atcp (int_of_string rest)
     | _ -> invalid_arg ("Net_runtime: bad address " ^ s))
  | None -> invalid_arg ("Net_runtime: bad address " ^ s)

let addr_to_string = function
  | Aunix p -> "unix:" ^ p
  | Atcp port -> "tcp:" ^ string_of_int port

let sockaddr_of = function
  | Aunix p -> Unix.ADDR_UNIX p
  | Atcp port -> Unix.ADDR_INET (Unix.inet_addr_loopback, port)

let socket_of = function
  | Aunix _ -> Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0
  | Atcp _ ->
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try Unix.setsockopt fd Unix.TCP_NODELAY true with _ -> ());
    fd

(* ------------------------------------------------------------------ *)
(* Shared pieces                                                      *)

(* Every worker rebuilds the rewrite from the program text and the
   scheme spec. Determinism note: symbol routing hashes depend on
   interning order, so workers intern identically — the program text
   first, then the EDB in wire order — and derived tuples cannot
   introduce new symbols. *)
let build_rewrite spec ~seed ~nprocs program =
  let r =
    match (spec : Wire.scheme_spec) with
    | Spec_q { ve; vr } -> Strategy.hash_q ~seed ~nprocs ~ve ~vr program
    | Spec_nocomm -> Strategy.no_communication ~seed ~nprocs program
    | Spec_example3 -> Strategy.example3 ~seed ~nprocs program
    | Spec_wolfson -> Strategy.wolfson_redundant ~seed ~nprocs program
    | Spec_tradeoff alpha -> Strategy.tradeoff ~seed ~nprocs ~alpha program
    | Spec_general -> Strategy.general ~seed ~nprocs program
    | Spec_plan json ->
      (match Plan.of_json json with
       | Error r -> Error (Format.asprintf "%a" Plan.pp_reject r)
       | Ok plan ->
         (match Plan.to_rewrite plan program with
          | Error r -> Error (Format.asprintf "%a" Plan.pp_reject r)
          | Ok rw -> Ok rw))
  in
  match r with
  | Ok rw -> rw
  | Error e -> invalid_arg ("Net_runtime: scheme rebuild failed: " ^ e)

(* Engine names of derived tuples: a routed predicate's [@out] and
   [@in] relations, a self-routed predicate's own; the stored ones are
   what a processor derives. *)
let is_derived_pred (rw : Rewrite.t) name =
  List.mem (Rewrite.original_pred name) rw.derived

let is_stored_pred rw name =
  is_derived_pred rw name
  && String.equal (Rewrite.stored_pred rw (Rewrite.original_pred name)) name

let rec waitpid_retry flags pid =
  try Unix.waitpid flags pid
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry flags pid

let now = Obs.Clock.now

(* ================================================================== *)
(* Worker                                                             *)
(* ================================================================== *)

exception Worker_exit of int

(* The worker's checkpoint bookkeeping around one processor. *)
type wproc = {
  p : Processor.t;
  mutable local_rounds : int;
  mutable last_ckpt : int;
  (* Receipts not yet shipped in a checkpoint: checkpoints carry only
     this delta and the coordinator accumulates. *)
  mutable seen_new : (int * int * int) list;
  (* Derived-store growth since the last checkpoint (bootstrap and
     step products, accepted wire injections): the next checkpoint
     ships this instead of scanning the whole store. *)
  mutable ckpt_acc : (string * Tuple.t) list;
  (* Derived tuples already shipped in a checkpoint (or restored from
     one): checkpoints carry only the delta, the coordinator
     accumulates. *)
  dumped : unit Fact.Tbl.t;
}

let snap_of ~store w : Wire.psnap =
  { ps_row = Processor.row ~store w.p; ps_sent_row = Array.copy w.p.sent_row }

let worker_body ~addr ~worker ~inc =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let a = parse_addr addr in
  (* Dial with jittered exponential backoff; the attempt count rides
     the Hello so the coordinator can report reconnects. *)
  let dial = Backoff.make ~base_ms:2 ~cap_ms:200 () in
  let attempts = ref 0 in
  let sock =
    let fd = ref None in
    while !fd = None do
      let s = socket_of a in
      (match Unix.connect s (sockaddr_of a) with
       | () -> fd := Some s
       | exception
           Unix.Unix_error
             ( ( Unix.ECONNREFUSED | Unix.ENOENT | Unix.ECONNRESET
               | Unix.EAGAIN | Unix.EINTR ),
               _,
               _ ) ->
         Unix.close s;
         incr attempts;
         if !attempts > 500 then raise (Worker_exit 3);
         Backoff.sleep dial !attempts);
    done;
    Option.get !fd
  in
  (* Worker output is queued and flushed nonblocking: a full socket
     buffer must never block the worker away from reading frames or
     heartbeating, or the failure detector mistakes a busy worker
     under backpressure for a dead one and the supervisor's SIGKILL
     turns congestion into a restart storm. *)
  let outq = Wire.outq () in
  let write frame = Wire.push outq frame in
  let flush_out () =
    match Wire.flush outq sock with
    | `Wrote _ -> ()
    | `Gone -> raise (Worker_exit 3)
  in
  (* Drain everything before an exit or a self-SIGKILL, so Bye and
     Crashing frames reach the coordinator. *)
  let flush_blocking () =
    while Wire.pending outq do
      (match Unix.select [] [ sock ] [] 1.0 with
       | _, _ :: _, _ -> flush_out ()
       | _ -> ()
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
    done
  in
  write (Wire.Hello { worker; inc; attempts = !attempts });
  flush_blocking ();
  let reader = Wire.reader () in
  (* The coordinator speaks Config first; frames decoded in the same
     read are queued for the main loop. *)
  let rec await_config () =
    match Wire.feed reader sock with
    | `Eof -> raise (Worker_exit 3)
    | `Again -> await_config ()
    | `Frames ([], _) -> await_config ()
    | `Frames (Wire.Config cf :: rest, _) -> (cf, rest)
    | `Frames (_, _) -> raise (Worker_exit 2)
  in
  let cf, early = await_config () in
  Unix.set_nonblock sock;
  let plan = cf.cf_fault in
  let faulty = (not (Fault.is_none plan)) || cf.cf_partition > 0.0 in
  (* Retransmission is only useful when the shim can actually LOSE a
     payload frame (drops or partitions). Sockets themselves are
     lossless, duplication and delay resolve by themselves, frames
     lost to a worker death are re-driven by the coordinator's history
     replay, and acks originate at the coordinator — which cannot die
     — so a peer's death cannot strand an [unacked] entry either.
     Retransmitting on a crash-only plan just amplifies congestion. *)
  let lossy = plan.Fault.drop > 0.0 || cf.cf_partition > 0.0 in
  let ckpt_on = plan.Fault.checkpoint_every <> None in
  let capacity = cf.cf_capacity in
  let limits = cf.cf_limits in
  let nprocs = cf.cf_nprocs in
  let program =
    match Parser.program cf.cf_program with
    | Ok p -> p
    | Error e ->
      Log.err (fun m -> m "worker %d: bad program: %a" worker Parser.pp_error e);
      raise (Worker_exit 2)
  in
  let edb = Database.create () in
  List.iter (fun wr -> ignore (Wire.add_wrel edb wr)) cf.cf_edb;
  let rw = build_rewrite cf.cf_spec ~seed:cf.cf_seed ~nprocs program in
  let fc = Fault.counters () in
  (* The first retransmission waits well past a loaded coordinator's
     ack round-trip, so a fault-free run never retransmits; later
     attempts back off exponentially. *)
  let retx = Backoff.make ~base_ms:20 ~cap_ms:160 () in
  let procs =
    List.filter_map
      (fun pid ->
        if pid mod cf.cf_procs <> worker then None
        else
          Some
            {
              p =
                Processor.create ~fc
                  ?crashes_done:(List.assoc_opt pid cf.cf_crashes_done)
                  ~pushdown:cf.cf_pushdown ~capacity ~reliable:faulty
                  ~retry_after:(fun attempt ->
                    float_of_int (Backoff.delay_ms retx attempt) /. 1000.)
                  rw ~fragment:(Pool.fragment rw edb pid) pid;
              local_rounds = 0;
              last_ckpt = 0;
              seen_new = [];
              ckpt_acc = [];
              dumped = Fact.Tbl.create 256;
            })
      (List.init nprocs Fun.id)
  in
  let proc_of =
    let tbl = Hashtbl.create 8 in
    List.iter (fun w -> Hashtbl.add tbl w.p.pid w) procs;
    fun pid -> Hashtbl.find tbl pid
  in
  let breached = ref false in
  let frames_received = ref 0 in
  let transmit w (b : Processor.batch) =
    let attempt = Processor.transmitted w.p b ~now:(now ()) in
    write
      (Wire.Data
         {
           src = w.p.pid;
           dst = b.dst;
           inc;
           seq = b.seq;
           attempt;
           replay = b.replay;
           batch = Wire.of_batch b.tuples;
         })
  in
  (* Accepted [@in] tuples are derived-store growth too, recorded for
     the next checkpoint delta. *)
  let on_accept w =
    if ckpt_on then Some (fun name t -> w.ckpt_acc <- (name, t) :: w.ckpt_acc)
    else None
  in
  (* A fresh product addressed to its own processor is delivered in
     place; a recovery replay travels like any other, marked as one. *)
  let route ~replay w produced =
    Processor.ship ~replay ?on_new:(on_accept w) w.p produced (transmit w)
  in
  let pump_retransmits () =
    let t = now () in
    List.iter (fun w -> Processor.due w.p ~now:t (transmit w)) procs
  in
  (* A scheduled crash is a genuine SIGKILL: flush a courtesy notice
     carrying the counters that die with the process, then kill
     ourselves. The coordinator records the fired round so the
     restarted worker does not re-fire it. *)
  let maybe_crash w =
    match Processor.crash_due w.p plan ~round:w.local_rounds with
    | Some c ->
      write
        (Wire.Crashing
           {
             pid = w.p.pid;
             round = c.Fault.cr_round;
             snaps = List.map (snap_of ~store:false) procs;
           });
      flush_blocking ();
      Unix.kill (Unix.getpid ()) Sys.sigkill
    | None -> ()
  in
  let maybe_checkpoint w =
    match plan.Fault.checkpoint_every with
    | Some k when w.local_rounds > w.last_ckpt && w.local_rounds mod k = 0 ->
      w.last_ckpt <- w.local_rounds;
      fc.Fault.n_checkpoints <- fc.Fault.n_checkpoints + 1;
      (* Ship only the derived tuples the coordinator has not seen in
         an earlier checkpoint of this state: a full dump every few
         rounds is O(rounds x store) on the wire and congests the
         coordinator into false failure detections. [ckpt_acc] is the
         store growth since the last checkpoint, so neither the dump
         nor this filter ever rescans the store. *)
      let delta =
        let acc = w.ckpt_acc in
        w.ckpt_acc <- [];
        List.filter
          (fun (pred, t) ->
            if Fact.Tbl.mem w.dumped (pred, t) then false
            else begin
              Fact.Tbl.replace w.dumped (pred, t) ();
              true
            end)
          acc
      in
      (* Receipts are deltas for the same reason as the tuples: the
         full table is O(frames) and would be re-marshalled on every
         checkpoint. *)
      let seen_delta = w.seen_new in
      w.seen_new <- [];
      write
        (Wire.Checkpoint
           {
             pid = w.p.pid;
             inc;
             round = w.local_rounds;
             tuples = Wire.of_batch delta;
             seen = seen_delta;
           })
    | _ -> ()
  in
  let breach reason =
    breached := true;
    write (Wire.Breach { reason })
  in
  (* The budgets; the deadline is the coordinator's, which owns the
     drive clock. *)
  let check_limits w =
    if not !breached then Option.iter breach (Processor.watchdog limits [ w.p ])
  in
  (* Record derived-store growth for the next checkpoint delta —
     every insertion flows through here or [on_accept], so a scan of
     the whole store at checkpoint time is never needed. *)
  let ckpt_note w produced =
    if ckpt_on then
      List.iter
        (fun ((name, _) as nt) ->
          if is_derived_pred rw name then w.ckpt_acc <- nt :: w.ckpt_acc)
        produced
  in
  let accept_batch w batch =
    let on_new = on_accept w in
    List.iter
      (fun (pred, tuple) -> Processor.receive ?on_new w.p pred tuple)
      (Wire.to_batch batch)
  in
  (* Restore from checkpoint dumps: a fresh engine over the base
     fragment, every dumped derived tuple injected (so its
     consequences re-derive), and — because [step] never returns
     injected tuples — the dumped stored tuples re-routed explicitly
     with [replay] marking (receivers dedup by content). *)
  let restores =
    List.filter (fun (r : Wire.restore) -> List.mem_assoc r.rs_pid
                    (List.map (fun w -> (w.p.pid, ())) procs))
      cf.cf_restores
  in
  let injected = ref 0 in
  List.iter
    (fun (r : Wire.restore) ->
      let w = proc_of r.rs_pid in
      w.local_rounds <- r.rs_round;
      w.last_ckpt <- r.rs_round;
      List.iter
        (fun (pred, t) ->
          ignore (Seminaive.inject w.p.engine pred t);
          (* These tuples are already at the coordinator; future
             checkpoints ship only what this incarnation adds. *)
          Fact.Tbl.replace w.dumped (pred, t) ();
          incr injected;
          (* A large restore must not look like death to the failure
             detector: keep heartbeats flowing while injecting. *)
          if !injected land 2047 = 0 then begin
            write
              (Wire.Heartbeat
                 { worker; inc; snaps = List.map (snap_of ~store:false) procs });
            flush_out ()
          end)
        (Wire.to_batch r.rs_tuples))
    restores;
  List.iter
    (fun w ->
      let produced = Seminaive.bootstrap w.p.engine in
      ckpt_note w produced;
      route ~replay:false w produced)
    procs;
  List.iter
    (fun (r : Wire.restore) ->
      let outs =
        List.filter (fun (pred, _) -> is_stored_pred rw pred)
          (Wire.to_batch r.rs_tuples)
      in
      route ~replay:true (proc_of r.rs_pid) outs)
    restores;
  let all_idle () = List.for_all (fun w -> Processor.idle w.p) procs in
  let answers_of w =
    let db = Seminaive.store w.p.engine in
    List.filter_map
      (fun pred ->
        match Database.find db (Rewrite.stored_pred rw pred) with
        | None -> None
        | Some rel ->
          Some
            {
              Wire.wr_pred = pred;
              wr_arity = Relation.arity rel;
              wr_tuples =
                List.rev
                  (Relation.fold (fun t acc -> Wire.of_tuple t :: acc) rel []);
            })
      rw.derived
  in
  let handle frame =
    incr frames_received;
    match (frame : Wire.frame) with
    | Data { src; dst; inc = sinc; seq; attempt = _; replay = _; batch } ->
      (* No ack here: the coordinator acks on receipt (its replay
         history guarantees delivery), so an ack can never die with a
         destination worker. *)
      let w = proc_of dst in
      (* The sender's incarnation in the key makes sequence reuse by a
         restarted peer harmless. *)
      let key = (src, sinc, seq) in
      if (not faulty) || Processor.fresh w.p key then begin
        if faulty then w.seen_new <- key :: w.seen_new;
        accept_batch w batch
      end
    | Tack { src; dst; inc = tinc; seq } ->
      (* [src] is our processor: the ack of [Data src->dst seq]. Acks
         addressed to a previous incarnation are stale. *)
      if tinc = inc then begin
        let w = proc_of src in
        Processor.ack_flush w.p ~dst ~seq (transmit w)
      end
    | Inject { dst; batch } -> accept_batch (proc_of dst) batch
    | Patch { dels } ->
      (* Net deletions of a session batch. The coordinator sends this
         only between drives (after a passed probe), so every engine
         is quiescent and retraction is legal. Re-derivation after a
         later re-insertion flows through the ordinary step loop. *)
      let dels = Wire.to_batch dels in
      let gone = Fact.Tbl.create 16 in
      List.iter
        (fun (pred, t) ->
          if List.mem pred rw.derived then begin
            Fact.Tbl.replace gone (Rewrite.stored_pred rw pred, t) ();
            Fact.Tbl.replace gone (Rewrite.in_pred pred, t) ()
          end)
        dels;
      List.iter
        (fun w ->
          Processor.retract w.p dels;
          (* The checkpoint cover forgets exactly the removed tuples: a
             re-derived tuple must enter a checkpoint again, while
             everything still true stays covered. *)
          Fact.Tbl.iter (fun key () -> Fact.Tbl.remove w.dumped key) gone;
          w.ckpt_acc <-
            List.filter (fun key -> not (Fact.Tbl.mem gone key)) w.ckpt_acc)
        procs
    | Update { dst; batch } ->
      (* Net base insertions of a session batch: pending work for the
         engines hosting them; consequences derive — and route — in
         the ordinary step loop. [inject] discards known tuples, so a
         redelivery (e.g. held frames replayed to a restarted worker
         already rebuilt from the updated EDB) changes nothing. *)
      let w = proc_of dst in
      List.iter (fun (pred, t) -> Processor.insert w.p pred t) (Wire.to_batch batch)
    | Collect { gen } ->
      (* End of drive: report every processor's answers and keep
         running. After a passed probe the engines are at the global
         fixpoint as-is; on an overload they are partial. *)
      List.iter
        (fun w ->
          write
            (Wire.Model
               {
                 gen;
                 pid = w.p.pid;
                 snap = snap_of ~store:true w;
                 answers = answers_of w;
               }))
        procs
    | Probe { epoch } ->
      write
        (Wire.Status
           {
             worker;
             inc;
             epoch;
             idle = all_idle ();
             frames_received = !frames_received;
           })
    | Stop ->
      write
        (Wire.Bye
           {
             worker;
             inc;
             faults = Fault.freeze fc;
             credit_stalls =
               List.fold_left (fun n w -> n + w.p.credit_stalls) 0 procs;
             peak_in_flight =
               List.fold_left (fun n w -> max n w.p.peak_in_flight) 0 procs;
           });
      flush_blocking ();
      raise (Worker_exit 0)
    | Hello _ | Config _ | Status _ | Heartbeat _ | Checkpoint _
    | Crashing _ | Breach _ | Bye _ | Model _ ->
      ()
  in
  let hb_s = float_of_int (max 1 cf.cf_hb_ms) /. 1000. in
  let last_hb = ref 0.0 in
  let maybe_heartbeat () =
    let t = now () in
    if t -. !last_hb >= hb_s then begin
      last_hb := t;
      write
        (Wire.Heartbeat
           { worker; inc; snaps = List.map (snap_of ~store:false) procs })
    end
  in
  let step_engines () =
    if not !breached then
      List.iter
        (fun w ->
          maybe_crash w;
          if Seminaive.has_pending w.p.engine then begin
            let produced = Seminaive.step w.p.engine in
            w.local_rounds <- w.local_rounds + 1;
            ckpt_note w produced;
            route ~replay:false w produced;
            maybe_checkpoint w;
            check_limits w
          end)
        procs
  in
  List.iter handle early;
  maybe_heartbeat ();
  while true do
    let busy =
      (not !breached)
      && List.exists (fun w -> Seminaive.has_pending w.p.engine) procs
    in
    let timeout = if busy then 0.0 else 0.005 in
    let wds = if Wire.pending outq then [ sock ] else [] in
    (match Unix.select [ sock ] wds [] timeout with
     | rds, wrs, _ ->
       if wrs <> [] then flush_out ();
       if rds <> [] then (
         match Wire.feed reader sock with
         | `Eof -> raise (Worker_exit 3)
         | `Again -> ()
         | `Frames (fs, _) -> List.iter handle fs)
     | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    if lossy then pump_retransmits ();
    step_engines ();
    maybe_heartbeat ();
    flush_out ()
  done;
  assert false

let worker_main ~addr ~worker ~inc =
  match worker_body ~addr ~worker ~inc with
  | _ -> 0
  | exception Worker_exit c -> c
  | exception e ->
    Printf.eprintf "datalogp worker %d: %s\n%!" worker (Printexc.to_string e);
    2

(* ================================================================== *)
(* Coordinator                                                        *)
(* ================================================================== *)

type spawn = Fork | Exec of string

type slot = {
  s_id : int;
  mutable s_os_pid : int;  (* 0 = no live process *)
  mutable s_inc : int;  (* incarnation expected on the next Hello *)
  mutable s_fd : Unix.file_descr option;
  mutable s_reader : Wire.reader;
  s_out : Wire.outq;
  mutable s_hold : Wire.frame list;  (* reversed; redelivered on reconfig *)
  mutable s_configured : bool;
  mutable s_delivered : int;  (* frames enqueued since Config *)
  mutable s_last_heard : float;
  mutable s_miss_reported : int;
  mutable s_restart_at : float option;
  mutable s_restarts : int;
  mutable s_status : (int * bool * int) option;  (* epoch, idle, received *)
  mutable s_last_snaps : Wire.psnap list;
}

(* Fold work that died with a worker incarnation into a snapshot:
   engine and channel counters add up, outbox peaks take the maximum,
   and the store fields stay [s]'s — the store is rebuilt, not lost. *)
let with_lost (s : Wire.psnap) (lost : Wire.psnap) : Wire.psnap =
  let a = s.ps_row and b = lost.ps_row in
  {
    ps_row =
      {
        a with
        firings = a.firings + b.firings;
        new_tuples = a.new_tuples + b.new_tuples;
        duplicate_firings = a.duplicate_firings + b.duplicate_firings;
        join_probes = a.join_probes + b.join_probes;
        iterations = a.iterations + b.iterations;
        tuples_sent = a.tuples_sent + b.tuples_sent;
        tuples_received = a.tuples_received + b.tuples_received;
        tuples_accepted = a.tuples_accepted + b.tuples_accepted;
        active_rounds = a.active_rounds + b.active_rounds;
        outbox_peak_rows = max a.outbox_peak_rows b.outbox_peak_rows;
        outbox_peak_bytes = max a.outbox_peak_bytes b.outbox_peak_bytes;
      };
    ps_sent_row = Array.map2 ( + ) s.ps_sent_row lost.ps_sent_row;
  }

(* A processor's reported answers as a store in engine naming
   ({!Rewrite.stored_pred} relations), the shape {!Pool.pool} pools. *)
let store_of rw wrels =
  let db = Database.create () in
  List.iter
    (fun (wr : Wire.wrel) ->
      ignore
        (Wire.add_wrel db
           { wr with wr_pred = Rewrite.stored_pred rw wr.wr_pred }))
    wrels;
  db

let tmp_counter = ref 0

let listen_setup transport =
  match transport with
  | `Unix ->
    incr tmp_counter;
    let path =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "datalogp-net-%d-%d.sock" (Unix.getpid ())
           !tmp_counter)
    in
    (try Unix.unlink path with _ -> ());
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 64;
    (fd, Aunix path)
  | `Tcp ->
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
    Unix.listen fd 64;
    let port =
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> assert false
    in
    (fd, Atcp port)

(* Per-worker restart budget: a worker restarted more often than this
   fails the run instead of looping. *)
let restart_budget = 8

let open_session ~config ~program ~spec ?(seed = 0) ?(procs = 4)
    ?(transport = `Unix) ?(partition = 0.0) ?(hb_ms = 25)
    ?(hb_miss_limit = 40) ?(spawn = Fork)
    (rw : Rewrite.t) ~edb =
  if config.Run_config.dial <> None then
    invalid_arg "Net_runtime: the adaptive dial is not supported";
  let pool = Pool.create ~config rw ~edb in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let n = rw.nprocs in
  let nworkers = max 1 (min procs n) in
  let plan = config.Run_config.fault in
  let limits = config.Run_config.limits in
  (* Mirrors the workers' [faulty || credited]: when the reliable
     layer is on, the coordinator acks each accepted payload. *)
  let acked =
    (not (Fault.is_none plan))
    || partition > 0.0
    || config.Run_config.capacity <> None
  in
  let fc = Fault.counters () in
  let shim = Shim.create ~plan ~partition fc in
  let t0 = now () in
  (* The combined EDB every worker receives, serialized once so all
     workers intern its symbols in the same order — and again whenever
     a session batch changes the base facts: a worker restarted
     afterwards must rebuild from the patched EDB. *)
  let wedb = ref (Wire.of_db (Pool.edb pool)) in
  let listen_fd, laddr = listen_setup transport in
  let addr_str = addr_to_string laddr in
  let slots =
    Array.init nworkers (fun i ->
        {
          s_id = i;
          s_os_pid = 0;
          s_inc = 0;
          s_fd = None;
          s_reader = Wire.reader ();
          s_out = Wire.outq ();
          s_hold = [];
          s_configured = false;
          s_delivered = 0;
          s_last_heard = t0;
          s_miss_reported = 0;
          s_restart_at = None;
          s_restarts = 0;
          s_status = None;
          s_last_snaps = [];
        })
  in
  let worker_of pid = pid mod nworkers in
  let own_pids w = List.filter (fun pid -> pid mod nworkers = w) (List.init n Fun.id) in
  let anon : (Unix.file_descr * Wire.reader) list ref = ref [] in
  let bytes_sent = ref 0 in
  let bytes_received = ref 0 in
  let reconnects = ref 0 in
  let hb_misses = ref 0 in
  let worker_restarts = ref 0 in
  let history : (int, (int * int * int * Wire.wbatch) list ref) Hashtbl.t =
    Hashtbl.create 16
  in
  let hist pid =
    match Hashtbl.find_opt history pid with
    | Some r -> r
    | None ->
      let r = ref [] in
      Hashtbl.replace history pid r;
      r
  in
  let payload_seen : (int * int * int * int, unit) Hashtbl.t =
    Hashtbl.create 256
  in
  let dumps : (int, Wire.restore) Hashtbl.t = Hashtbl.create 8 in
  (* Per pid: every (src, inc, seq) receipt covered by any checkpoint
     received so far — accumulated from per-checkpoint deltas, and a
     hashtable because restore filters the whole inbound history
     against it. *)
  let dump_seen : (int, (int * int * int, unit) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 8
  in
  let dump_seen_of pid =
    match Hashtbl.find_opt dump_seen pid with
    | Some t -> t
    | None ->
      let t = Hashtbl.create 256 in
      Hashtbl.replace dump_seen pid t;
      t
  in
  let crashes_done : (int, int list) Hashtbl.t = Hashtbl.create 8 in
  (* Per pid: the work of dead incarnations. *)
  let lost : (int, Wire.psnap) Hashtbl.t = Hashtbl.create 8 in
  let byes : (int, Stats.faults * int * int) Hashtbl.t = Hashtbl.create 8 in
  let delayq : (float * int * Wire.frame) list ref = ref [] in
  let stopping = ref false in
  let overload : Overload.reason option ref = ref None in
  let probe_epoch = ref 0 in
  let probe_open = ref false in
  let probe_armed = ref false in
  let probe_next_at = ref 0.0 in
  (* Session state. A drive is one run to global quiescence: the
     initial evaluation and each non-empty update batch. Every drive
     ends with one [Collect]: workers report per-processor models and
     counter snapshots and stay resident for the next batch. [close]
     pools the models of the last collection and sends only [Stop]. *)
  let models : (int, Wire.psnap * Wire.wrel list) Hashtbl.t =
    Hashtbl.create 8
  in
  let collect_gen = ref 0 in
  let collecting = ref false in
  let dead = ref false in
  let drive_start = ref t0 in
  let restart_backoff = Backoff.make ~base_ms:5 ~cap_ms:400 () in
  let hb_s = float_of_int (max 1 hb_ms) /. 1000. in
  let disarm () =
    probe_armed := false;
    probe_open := false
  in
  let enqueue_raw s frame =
    Wire.push s.s_out frame
  in
  let enqueue s frame =
    enqueue_raw s frame;
    s.s_delivered <- s.s_delivered + 1
  in
  let enqueue_to_pid pid frame =
    let s = slots.(worker_of pid) in
    if s.s_configured && s.s_fd <> None then enqueue s frame
    else s.s_hold <- frame :: s.s_hold
  in
  let push_delay due dst frame =
    let rec insert = function
      | [] -> [ (due, dst, frame) ]
      | (d, _, _) :: _ as l when due < d -> (due, dst, frame) :: l
      | x :: rest -> x :: insert rest
    in
    delayq := insert !delayq
  in
  let close_conn s =
    (match s.s_fd with
     | Some fd -> (try Unix.close fd with _ -> ())
     | None -> ());
    s.s_fd <- None;
    s.s_configured <- false;
    s.s_status <- None
  in
  let spawn_worker s =
    (match spawn with
     | Fork ->
       (match Unix.fork () with
        | 0 ->
          (try Unix.close listen_fd with _ -> ());
          List.iter (fun (fd, _) -> try Unix.close fd with _ -> ()) !anon;
          Array.iter
            (fun s' ->
              match s'.s_fd with
              | Some fd -> (try Unix.close fd with _ -> ())
              | None -> ())
            slots;
          let code =
            try worker_main ~addr:addr_str ~worker:s.s_id ~inc:s.s_inc
            with _ -> 2
          in
          Unix._exit code
        | pid -> s.s_os_pid <- pid)
     | Exec exe ->
       let pid =
         Unix.create_process exe
           [|
             exe; "worker"; "--addr"; addr_str; "--worker";
             string_of_int s.s_id; "--inc"; string_of_int s.s_inc;
           |]
           Unix.stdin Unix.stdout Unix.stderr
       in
       s.s_os_pid <- pid);
    s.s_last_heard <- now ();
    s.s_miss_reported <- 0;
    if s.s_inc > 0 then incr worker_restarts
  in
  let begin_collect () =
    incr collect_gen;
    collecting := true;
    Hashtbl.clear models;
    Array.iter
      (fun s ->
        if s.s_configured && s.s_fd <> None then
          enqueue s (Wire.Collect { gen = !collect_gen }))
      slots
  in
  (* The end of the session: every live worker answers [Stop] with its
     [Bye] and exits. *)
  let begin_stop () =
    stopping := true;
    Array.iter
      (fun s -> if s.s_configured && s.s_fd <> None then enqueue s Wire.Stop)
      slots
  in
  (* An overload ends the drive early: collect the partial models, then
     stop. A worker handles the pair in order, so its [Model]s precede
     its [Bye]. *)
  let overload_stop reason =
    if !overload = None then overload := Some reason;
    if not !stopping then begin
      begin_collect ();
      begin_stop ()
    end
  in
  let all_collected () =
    List.for_all (Hashtbl.mem models) (List.init n Fun.id)
  in
  let configure s fd reader =
    s.s_fd <- Some fd;
    s.s_reader <- reader;
    Wire.clear s.s_out;
    s.s_delivered <- 0;
    s.s_status <- None;
    let pids = own_pids s.s_id in
    let restores =
      List.filter_map (fun pid -> Hashtbl.find_opt dumps pid) pids
    in
    enqueue_raw s
      (Wire.Config
         {
           cf_program = program;
           cf_spec = spec;
           cf_nprocs = n;
           cf_procs = nworkers;
           cf_seed = seed;
           cf_pushdown = config.Run_config.pushdown;
           cf_fault = plan;
           cf_partition = partition;
           cf_capacity = config.Run_config.capacity;
           cf_limits = limits;
           cf_edb = !wedb;
           cf_crashes_done =
             Hashtbl.fold (fun pid rs acc -> (pid, rs) :: acc) crashes_done [];
           cf_restores = restores;
           cf_hb_ms = hb_ms;
         });
    s.s_configured <- true;
    if s.s_inc > 0 then begin
      fc.Fault.n_recoveries <- fc.Fault.n_recoveries + List.length pids;
      fc.Fault.n_restores <-
        fc.Fault.n_restores + List.length restores;
      (* Replay each restored processor's inbound history, minus what
         its checkpoint already covers. *)
      List.iter
        (fun pid ->
          let covered = dump_seen_of pid in
          List.iter
            (fun (src, sinc, seq, batch) ->
              if not (Hashtbl.mem covered (src, sinc, seq)) then begin
                fc.Fault.n_replayed <-
                  fc.Fault.n_replayed + List.length batch;
                enqueue s (Wire.Inject { dst = pid; batch })
              end)
            (List.rev !(hist pid)))
        pids
    end;
    List.iter (fun f -> enqueue s f) (List.rev s.s_hold);
    s.s_hold <- [];
    if !stopping then begin
      if !collecting then enqueue s (Wire.Collect { gen = !collect_gen });
      enqueue s Wire.Stop
    end
    else
      (* A worker rebuilt mid-collection re-derives its state from the
         (already patched) history: cancel the collection and let the
         probe cycle re-establish quiescence before collecting again.
         Stale [Model] frames are discarded by their generation. *)
      collecting := false;
    disarm ()
  in
  let handle_death s =
    (* Called when both the socket and the process are gone. A worker
       that dies during the stop once its final models are in is not
       needed again: only its [Bye] (fault counters) is lost, and its
       models already hold that incarnation's cumulative counters. *)
    let pids = own_pids s.s_id in
    if not (!stopping && List.for_all (Hashtbl.mem models) pids) then begin
      fc.Fault.n_crashes <- fc.Fault.n_crashes + List.length pids;
      List.iter
        (fun (snap : Wire.psnap) ->
          let pid = snap.ps_row.pid in
          Hashtbl.replace lost pid
            (match Hashtbl.find_opt lost pid with
             | Some l -> with_lost snap l
             | None -> snap))
        s.s_last_snaps;
      s.s_last_snaps <- [];
      s.s_restarts <- s.s_restarts + 1;
      if s.s_restarts > restart_budget then
        failwith
          (Printf.sprintf "Net_runtime: worker %d exceeded %d restarts"
             s.s_id restart_budget);
      s.s_inc <- s.s_inc + 1;
      s.s_restart_at <-
        Some
          (now ()
          +. (float_of_int
                (Backoff.delay_ms
                   ~hint_ms:
                     (Backoff.seeded_jitter ~seed:(plan.Fault.seed + s.s_id)
                        ~span_ms:5 s.s_restarts)
                   restart_backoff (s.s_restarts - 1))
             /. 1000.));
      disarm ();
      Log.info (fun m ->
          m "worker %d died; restart %d as incarnation %d" s.s_id
            s.s_restarts s.s_inc)
    end
  in
  let handle_eof s =
    close_conn s;
    if s.s_os_pid <> 0 then (try Unix.kill s.s_os_pid Sys.sigkill with _ -> ())
    else handle_death s
  in
  let reap () =
    Array.iter
      (fun s ->
        if s.s_os_pid <> 0 then
          match waitpid_retry [ Unix.WNOHANG ] s.s_os_pid with
          | 0, _ -> ()
          | _, _ ->
            s.s_os_pid <- 0;
            if s.s_fd = None && s.s_restart_at = None then handle_death s
          | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
            s.s_os_pid <- 0;
            if s.s_fd = None && s.s_restart_at = None then handle_death s)
      slots
  in
  let handle_worker_frame s frame =
    s.s_last_heard <- now ();
    s.s_miss_reported <- 0;
    match (frame : Wire.frame) with
    | Data { src; dst; inc = sinc; seq; attempt; replay = _; batch } ->
      disarm ();
      let v = Shim.verdict shim ~src ~dst ~seq ~attempt in
      if v.Shim.v_copies > 0 then begin
        let key = (src, dst, sinc, seq) in
        if not (Hashtbl.mem payload_seen key) then begin
          Hashtbl.replace payload_seen key ();
          let h = hist dst in
          h := (src, sinc, seq, batch) :: !h
        end;
        (* Ack the SENDER here, not at the destination: the payload is
           now in the replay history, so it reaches [dst] even across
           a restart — and the coordinator cannot die, so the ack
           cannot be lost to a crash, and the sender's [unacked] entry
           can never be stranded. Shim-dropped frames get no ack and
           are retransmitted by the sender. *)
        if acked then
          enqueue_to_pid src (Wire.Tack { src; dst; inc = sinc; seq });
        if v.Shim.v_delay_ms > 0 then
          push_delay (now () +. (float_of_int v.Shim.v_delay_ms /. 1000.))
            dst frame
        else enqueue_to_pid dst frame;
        if v.Shim.v_copies = 2 then enqueue_to_pid dst frame
      end
    | Tack _ -> ()
      (* Acks originate at the coordinator; workers no longer send
         any, so there is nothing to relay. *)
    | Status { worker = w; inc; epoch; idle; frames_received } ->
      if w = s.s_id && inc = s.s_inc && epoch = !probe_epoch then
        s.s_status <- Some (epoch, idle, frames_received)
    | Heartbeat { worker = _; inc; snaps } ->
      if inc = s.s_inc then s.s_last_snaps <- snaps
    | Checkpoint { pid; inc; round; tuples; seen } ->
      if inc = s.s_inc then begin
        (* Checkpoints are deltas: accumulate onto what this pid has
           already dumped (a restored incarnation resumes the delta
           chain from the dump it was handed). *)
        let prev =
          match Hashtbl.find_opt dumps pid with
          | Some r -> r.Wire.rs_tuples
          | None -> []
        in
        Hashtbl.replace dumps pid
          { Wire.rs_pid = pid; rs_round = round;
            rs_tuples = List.rev_append tuples prev };
        let tbl = dump_seen_of pid in
        List.iter (fun r -> Hashtbl.replace tbl r ()) seen
      end
    | Crashing { pid; round; snaps } ->
      disarm ();
      Hashtbl.replace crashes_done pid
        (round
        :: Option.value ~default:[] (Hashtbl.find_opt crashes_done pid));
      s.s_last_snaps <- snaps
    | Breach { reason } ->
      disarm ();
      overload_stop reason
    | Bye { worker = w; inc = _; faults; credit_stalls; peak_in_flight } ->
      Hashtbl.replace byes w (faults, credit_stalls, peak_in_flight)
    | Model { gen; pid; snap; answers } ->
      if !collecting && gen = !collect_gen then
        Hashtbl.replace models pid (snap, answers)
    | Hello _ | Config _ | Inject _ | Probe _ | Stop | Patch _ | Update _
    | Collect _ ->
      ()
  in
  (* Attach a greeted connection to its slot; a stale or foreign one
     is closed. *)
  let attach_hello fd reader ~worker:w ~inc ~attempts =
    if w < 0 || w >= nworkers || inc <> slots.(w).s_inc then begin
      (try Unix.close fd with _ -> ());
      None
    end
    else begin
      let s = slots.(w) in
      (match s.s_fd with
       | Some old -> (try Unix.close old with _ -> ())
       | None -> ());
      reconnects := !reconnects + attempts + (if inc > 0 then 1 else 0);
      s.s_last_heard <- now ();
      s.s_miss_reported <- 0;
      configure s fd reader;
      Some s
    end
  in
  let flush_slot s =
    match s.s_fd with
    | None -> ()
    | Some fd -> (
      match Wire.flush s.s_out fd with
      | `Wrote n -> bytes_sent := !bytes_sent + n
      | `Gone -> handle_eof s)
  in
  let new_probe () =
    incr probe_epoch;
    probe_open := true;
    Array.iter (fun s -> enqueue s (Wire.Probe { epoch = !probe_epoch })) slots
  in
  let coordinator_quiet () =
    !delayq = []
    && Array.for_all
         (fun s ->
           s.s_fd <> None && s.s_configured && s.s_restart_at = None
           && s.s_hold = []
           && not (Wire.pending s.s_out))
         slots
  in
  let check_termination () =
    if (not !stopping) && (not !collecting) && coordinator_quiet () then begin
      if !probe_open then begin
        let complete =
          Array.for_all
            (fun s ->
              match s.s_status with
              | Some (e, _, _) -> e = !probe_epoch
              | None -> false)
            slots
        in
        if complete then begin
          let pass =
            Array.for_all
              (fun s ->
                match s.s_status with
                | Some (e, idle, fr) ->
                  e = !probe_epoch && idle && fr = s.s_delivered
                | None -> false)
              slots
          in
          probe_open := false;
          if pass then begin
            if !probe_armed then begin_collect ()
            else begin
              probe_armed := true;
              new_probe ()
            end
          end
          else begin
            probe_armed := false;
            probe_next_at := now () +. 0.005
          end
        end
      end
      else if now () >= !probe_next_at then new_probe ()
    end
  in
  let release_delayed () =
    let t = now () in
    let rec go = function
      | (due, dst, frame) :: rest when due <= t ->
        disarm ();
        enqueue_to_pid dst frame;
        go rest
      | l -> l
    in
    delayq := go !delayq
  in
  let do_restarts () =
    let t = now () in
    Array.iter
      (fun s ->
        match s.s_restart_at with
        | Some at when at <= t && s.s_os_pid = 0 ->
          s.s_restart_at <- None;
          spawn_worker s
        | _ -> ())
      slots
  in
  let check_heartbeats () =
    let t = now () in
    Array.iter
      (fun s ->
        if s.s_fd <> None && s.s_configured then begin
          let misses = int_of_float ((t -. s.s_last_heard) /. hb_s) in
          if misses > s.s_miss_reported then begin
            hb_misses := !hb_misses + misses - s.s_miss_reported;
            s.s_miss_reported <- misses
          end;
          if misses >= hb_miss_limit && s.s_os_pid <> 0 then begin
            Log.info (fun m ->
                m "worker %d missed %d heartbeats; killing" s.s_id misses);
            try Unix.kill s.s_os_pid Sys.sigkill with _ -> ()
          end
        end)
      slots
  in
  (* The deadline alone: the workers watch the budgets. *)
  let check_deadline () =
    if not !stopping then
      Option.iter overload_stop
        (Processor.watchdog limits ~since:!drive_start [])
  in
  let cleanup () =
    if not !dead then begin
      dead := true;
      Array.iter
        (fun s ->
          if s.s_os_pid <> 0 then begin
            (try Unix.kill s.s_os_pid Sys.sigkill with _ -> ());
            (try ignore (waitpid_retry [] s.s_os_pid) with _ -> ());
            s.s_os_pid <- 0
          end;
          match s.s_fd with
          | Some fd ->
            (try Unix.close fd with _ -> ());
            s.s_fd <- None
          | None -> ())
        slots;
      List.iter (fun (fd, _) -> try Unix.close fd with _ -> ()) !anon;
      anon := [];
      (try Unix.close listen_fd with _ -> ());
      match laddr with
      | Aunix path -> (try Unix.unlink path with _ -> ())
      | Atcp _ -> ()
    end
  in
  (* One drive: it ends when a [Collect] has gathered every processor's
     model. A stop (on [close] or overload) also waits for the workers'
     [Bye]s, with a short grace: they carry only fault counters. Any
     failure tears the fleet down. *)
  let drive_loop () =
    let t = now () in
    drive_start := t;
    (* The client may have been idle between drives: worker heartbeats
       accumulated unread in the socket buffers, so the failure
       detector must not count the gap as misses. *)
    Array.iter (fun s -> s.s_last_heard <- t) slots;
    probe_armed := false;
    probe_open := false;
    probe_next_at := 0.0;
  let bye_deadline = ref infinity in
  let finished = ref false in
  try
  while not !finished do
    check_deadline ();
    do_restarts ();
    reap ();
    check_heartbeats ();
    release_delayed ();
    let t = now () in
    let next =
      let m = ref (t +. 0.02) in
      (match !delayq with (due, _, _) :: _ -> if due < !m then m := due | [] -> ());
      Array.iter
        (fun s ->
          match s.s_restart_at with
          | Some at when at < !m -> m := at
          | _ -> ())
        slots;
      if (not !stopping) && !probe_next_at > t && !probe_next_at < !m then
        m := !probe_next_at;
      !m
    in
    let timeout = max 0.0 (min 0.05 (next -. t)) in
    let rds =
      listen_fd
      :: (List.map fst !anon
         @ List.filter_map (fun s -> s.s_fd) (Array.to_list slots))
    in
    let wds =
      List.filter_map
        (fun s ->
          match s.s_fd with
          | Some fd when Wire.pending s.s_out -> Some fd
          | _ -> None)
        (Array.to_list slots)
    in
    let r, w, _ =
      match Unix.select rds wds [] timeout with
      | v -> v
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    if List.mem listen_fd r then begin
      match Unix.accept listen_fd with
      | fd, _ ->
        Unix.set_nonblock fd;
        (match laddr with
         | Atcp _ -> (try Unix.setsockopt fd Unix.TCP_NODELAY true with _ -> ())
         | Aunix _ -> ());
        anon := (fd, Wire.reader ()) :: !anon
      | exception Unix.Unix_error (_, _, _) -> ()
    end;
    (* Anonymous connections: waiting for their Hello. *)
    let still_anon = ref [] in
    List.iter
      (fun (fd, reader) ->
        if List.mem fd r then
          match Wire.feed reader fd with
          | `Eof | (exception Failure _) -> (try Unix.close fd with _ -> ())
          | `Again -> still_anon := (fd, reader) :: !still_anon
          | `Frames (fs, nbytes) -> (
            bytes_received := !bytes_received + nbytes;
            match fs with
            | Wire.Hello { worker; inc; attempts } :: rest ->
              Option.iter
                (fun s -> List.iter (handle_worker_frame s) rest)
                (attach_hello fd reader ~worker ~inc ~attempts)
            | [] -> still_anon := (fd, reader) :: !still_anon
            | _ :: _ -> (try Unix.close fd with _ -> ()))
        else still_anon := (fd, reader) :: !still_anon)
      !anon;
    anon := !still_anon;
    Array.iter
      (fun s ->
        match s.s_fd with
        | Some fd when List.mem fd r -> (
          match Wire.feed s.s_reader fd with
          | `Eof -> handle_eof s
          | `Again -> ()
          | `Frames (fs, nbytes) ->
            bytes_received := !bytes_received + nbytes;
            List.iter (handle_worker_frame s) fs
          | exception Failure _ -> handle_eof s)
        | _ -> ())
      slots;
    Array.iter
      (fun s ->
        match s.s_fd with
        | Some fd when List.mem fd w -> flush_slot s
        | _ -> ())
      slots;
    (* Also try to flush fresh output eagerly (sockets are usually
       writable; EAGAIN just defers to the next select round). *)
    Array.iter
      (fun s -> if Wire.pending s.s_out then flush_slot s)
      slots;
    check_termination ();
    if !stopping then begin
      (* Workers that (re)connect during the stop still get their
         [Collect] and [Stop] in [configure]. *)
      if all_collected () then begin
        let t = now () in
        if !bye_deadline = infinity then bye_deadline := t +. 0.5;
        if
          t >= !bye_deadline
          || Array.for_all
               (fun s -> s.s_fd = None || Hashtbl.mem byes s.s_id)
               slots
        then finished := true
      end
    end
    else if !collecting && all_collected () then begin
      collecting := false;
      finished := true
    end
  done
  with e ->
    cleanup ();
    raise e
  in
  (* ---------------- assembly ---------------- *)
  (* The per-processor models of the last completed [Collect], as
     stores in pid order: the between-drives answer and, at the stop,
     the final one. *)
  let collected () =
    List.filter_map
      (fun pid ->
        Option.map (fun (_, a) -> store_of rw a) (Hashtbl.find_opt models pid))
      (List.init n Fun.id)
  in
  let assemble_final () =
  let bye_list = Hashtbl.fold (fun _ v acc -> v :: acc) byes [] in
  let total_stalls =
    List.fold_left (fun acc (_, st, _) -> acc + st) 0 bye_list
  in
  let peak_in_flight =
    List.fold_left (fun acc (_, _, pk) -> max acc pk) 0 bye_list
  in
  let faults =
    List.fold_left
      (fun acc (f, _, _) -> Pool.add_faults acc f)
      (Fault.freeze fc ~credit_stalls:total_stalls)
      bye_list
  in
  let wire_retransmits =
    List.fold_left
      (fun acc ((f : Stats.faults), _, _) -> acc + f.retransmits)
      0 bye_list
  in
  let transport_stats =
    {
      Stats.reconnects = !reconnects;
      wire_retransmits;
      heartbeat_misses = !hb_misses;
      worker_restarts = !worker_restarts;
      bytes_sent = !bytes_sent;
      bytes_received = !bytes_received;
    }
  in
  let answers, pooled = Pool.pool pool (collected ()) in
  let snaps =
    Array.init n (fun pid ->
        let snap = fst (Hashtbl.find models pid) in
        match Hashtbl.find_opt lost pid with
        | Some l -> with_lost snap l
        | None -> snap)
  in
  ( answers,
    Pool.stats pool ~transport:transport_stats ~pooled ~faults ~peak_in_flight
      ~per_proc:(Array.map (fun (s : Wire.psnap) -> s.ps_row) snaps)
      ~channel_tuples:(Array.map (fun (s : Wire.psnap) -> s.ps_sent_row) snaps) )
  in
  (* After a stop: assemble, tear the fleet down. Raises when the stop
     was an overload. *)
  let finish () =
    let answers, stats = assemble_final () in
    cleanup ();
    match !overload with
    | Some reason -> raise (Overload.Overload { reason; stats })
    | None -> { Session.answers; stats }
  in
  (* ---------------- initial drive ---------------- *)
  (try Array.iter spawn_worker slots
   with e ->
     cleanup ();
     raise e);
  drive_loop ();
  if !stopping then ignore (finish ());
  (* ---------------- session handle ---------------- *)
  let check_alive () =
    if !dead then raise (Session.Closed "net")
  in
  let drive_batch (oc : Session.outcome) =
    let removed = oc.oc_removed and added = oc.oc_added in
    if removed <> [] || added <> [] then begin
      if removed <> [] then begin
        let removed_tbl = Fact.Tbl.create 64 in
        List.iter (fun kt -> Fact.Tbl.replace removed_tbl kt ()) removed;
        let gone name wt =
          Fact.Tbl.mem removed_tbl
            (Rewrite.original_pred name, Wire.to_tuple wt)
        in
        (* Purge the replay histories and checkpoint dumps of exactly
           the net-removed tuples: a worker rebuilt later must not
           resurrect them, while everything still true stays covered.
           A tuple re-derived after re-insertion takes fresh sequence
           numbers, so it re-enters the history on its own. *)
        Hashtbl.iter
          (fun _pid r ->
            r :=
              List.map
                (fun (src, sinc, seq, batch) ->
                  ( src, sinc, seq,
                    List.filter
                      (fun (name, wt) -> not (gone name wt))
                      batch ))
                !r)
          history;
        let patched =
          Hashtbl.fold
            (fun pid (r : Wire.restore) acc ->
              ( pid,
                {
                  r with
                  Wire.rs_tuples =
                    List.filter
                      (fun (name, wt) -> not (gone name wt))
                      r.Wire.rs_tuples;
                } )
              :: acc)
            dumps []
        in
        List.iter (fun (pid, r) -> Hashtbl.replace dumps pid r) patched
      end;
      wedb := Wire.of_db (Pool.edb pool);
      (* The deletion patch goes only to live configured workers: a
         worker rebuilt afterwards starts from the patched state and
         must never replay the frame (its history injections would
         still be pending when the retraction arrived). *)
      if removed <> [] then begin
        let dels = Wire.of_batch removed in
        Array.iter
          (fun s ->
            if s.s_configured && s.s_fd <> None then
              enqueue s (Wire.Patch { dels }))
          slots
      end;
      (* Base insertions enter at the processors hosting them; their
         consequences re-derive — and re-route — during the drive. *)
      let updates = Array.make n [] in
      List.iter
        (fun (pred, t) ->
          if not (Pool.is_derived pool pred) then
            for pid = 0 to n - 1 do
              if rw.resident pid pred t then
                updates.(pid) <- (pred, t) :: updates.(pid)
            done)
        added;
      Array.iteri
        (fun pid batch ->
          if batch <> [] then
            enqueue_to_pid pid
              (Wire.Update { dst = pid; batch = Wire.of_batch (List.rev batch) }))
        updates;
      drive_loop ();
      if !stopping then ignore (finish ())
    end
  in
  let apply batch =
    check_alive ();
    Pool.apply pool [||] ~drive:drive_batch batch
  in
  let query pred =
    check_alive ();
    Pool.query pool (collected ()) pred
  in
  let model () =
    check_alive ();
    fst (Pool.pool pool (collected ()))
  in
  (* The last collection is current (every drive ends with one), so
     closing only stops the fleet. *)
  let close () =
    check_alive ();
    begin_stop ();
    drive_loop ();
    finish ()
  in
  Session.v ~runtime:"net" ~apply ~query ~model ~close

let run ~config ~program ~spec ?seed ?procs ?transport ?partition ?hb_ms
    ?hb_miss_limit ?spawn (rw : Rewrite.t) ~edb =
  Session.close
    (open_session ~config ~program ~spec ?seed ?procs ?transport ?partition
       ?hb_ms ?hb_miss_limit ?spawn rw ~edb)

let runtime ~program ~spec ?seed ?procs ?transport ?partition ?hb_ms ?spawn
    () : (module Pardatalog.Runtime.S) =
  (module struct
    let name = "net"

    let run ~config rw ~edb =
      run ~config ~program ~spec ?seed ?procs ?transport ?partition ?hb_ms
        ?spawn rw ~edb

    let open_session ~config rw ~edb =
      open_session ~config ~program ~spec ?seed ?procs ?transport ?partition
        ?hb_ms ?spawn rw ~edb
  end)
