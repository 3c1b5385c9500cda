open Datalog

(* Messages are addressed to processors; mailboxes belong to domains,
   which demultiplex. [Data] carries a per-channel sequence number so
   the reliable-delivery layer can suppress duplicates; [Tack] is its
   transport-level acknowledgement and [Replay] its recovery broadcast.
   Control messages (tokens, transport acks, replay requests, stop)
   ride the mailboxes directly and are never subjected to the fault
   plan — only payload [Data] is. *)
type msg =
  | Data of { src : int; dst : int; seq : int; batch : (string * Tuple.t) list }
  | Token of { dst : int; token : Safra.token }
  | Tack of { sender : int; receiver : int; seq : int }
  | Replay of { requester : int }
  | Stop

(* Per-epoch control state of one processor; its engine, channels and
   counters live in the session-resident [Processor.t]. *)
type ctl = {
  p : Processor.t;
  safra : Safra.t;
  mutable held_token : Safra.token option;
  mutable probe_outstanding : bool;  (* pid 0 only *)
  mutable local_rounds : int;  (* semi-naive iterations this epoch *)
  mutable crashes_fired : int list;
}

(* Per-worker outcome, merged by the parent after the join. *)
type worker_extra = {
  we_overload : Overload.reason option;
  we_phase_ns : (string * int) list;
  we_bulk_pushes : int;
  we_bulk_messages : int;
}

(* Wall-clock retransmission backoff, bounded like the simulated
   runtime's round-based one. *)
let retry_delay attempt = 0.001 *. float_of_int (1 lsl min attempt 6)

(* [procs] are the processors this domain owns for the epoch: a worker
   reads and writes only them while running, and the parent only
   touches any processor between [Domain.spawn] and [Domain.join]
   cycles (the join provides the happens-before edge). [bootstrap]
   marks the first epoch; later epochs adopt the engines as-is — their
   pending injections are drained by the ordinary step loop. *)
let worker plan ~(limits : Overload.limits) ~dial ~obs ~t0 ~bootstrap
    n mailboxes ~domain_of procs my_domain =
  let faulty = not (Fault.is_none plan) in
  let credited = List.exists (fun (p : Processor.t) -> p.capacity <> None) procs in
  let tr = obs.Obs.trace in
  let mx = obs.Obs.metrics in
  (* Per-worker wall-clock accumulator (no cross-domain sharing, so no
     lock): pooled into [Stats.phase_ns] after the join. *)
  let ptimer = Obs.Phase_timer.create ~metrics:mx () in
  let span ~pid ~round phase f =
    Obs.Phase_timer.time ptimer (Obs.Trace.phase_name phase) (fun () ->
        Obs.Trace.span tr ~pid ~round phase f)
  in
  let overload : Overload.reason option ref = ref None in
  let my_mailbox = mailboxes.(my_domain) in
  let send_to_pid pid msg = Mailbox.push mailboxes.(domain_of pid) msg in
  (* Send coalescing (§16): [Data] payloads are not pushed one mailbox
     operation at a time but staged in a per-destination-domain buffer
     and handed over in bulk — one lock acquisition and one consumer
     wake-up per (phase, destination) via [Mailbox.push_all]. Control
     traffic (tokens, acks, replay requests, stop) stays immediate:
     its latency bounds termination detection. The buffer is flushed
     after every dispatch drain and every step sweep, and — crucially —
     inside [announce_termination] and before any blocking drain, so a
     worker can never go to sleep (or tell others to stop) while it
     still holds undelivered tuples; a held [Data] whose send the
     detector has already counted would otherwise stall Safra's token
     forever. *)
  let ndest = Array.length mailboxes in
  let outbuf = Array.init ndest (fun _ -> Queue.create ()) in
  let bulk_pushes = ref 0 in
  let bulk_messages = ref 0 in
  let buffer_data pid msg = Queue.add msg outbuf.(domain_of pid) in
  let flush_outbuf () =
    for d = 0 to ndest - 1 do
      let q = outbuf.(d) in
      if not (Queue.is_empty q) then begin
        let msgs = List.of_seq (Queue.to_seq q) in
        Queue.clear q;
        Mailbox.push_all mailboxes.(d) msgs;
        incr bulk_pushes;
        bulk_messages := !bulk_messages + List.length msgs
      end
    done
  in
  let ctls =
    List.map
      (fun (p : Processor.t) ->
        {
          p;
          safra = Safra.create ();
          held_token = None;
          probe_outstanding = false;
          local_rounds = 0;
          crashes_fired = [];
        })
      procs
  in
  let ctl_of =
    let tbl = Hashtbl.create 8 in
    List.iter (fun c -> Hashtbl.add tbl c.p.pid c) ctls;
    fun pid -> Hashtbl.find tbl pid
  in
  let stopped = ref false in
  (* One transmission attempt of a batch. *)
  let transmit (p : Processor.t) (b : Processor.batch) =
    let data () =
      buffer_data b.dst (Data { src = p.pid; dst = b.dst; seq = b.seq; batch = b.tuples })
    in
    if not faulty then data ()
    else begin
      let fc = p.fc in
      let attempt = Processor.transmitted p b ~now:(Obs.Clock.now ()) in
      let fate = Fault.fate plan ~src:p.pid ~dst:b.dst ~seq:b.seq ~attempt in
      if fate.f_drop then fc.n_drops <- fc.n_drops + 1
      else begin
        (* Delay and reorder are no-ops here: mailbox scheduling is
           already asynchronous, so added latency changes nothing
           observable. They are only tallied. *)
        if fate.f_delay > 0 then fc.n_delays <- fc.n_delays + 1;
        if fate.f_jitter > 0 then fc.n_reorders <- fc.n_reorders + 1;
        data ();
        if fate.f_dup then begin
          fc.n_dups_injected <- fc.n_dups_injected + 1;
          data ()
        end
      end
    end
  in
  (* New batches on the channels. Safra counts at sequence-number
     granularity: one send per new batch here, one receive per
     first-seen sequence number at the receiver — retransmissions and
     duplicates are invisible to it, which keeps the token balance
     sound over lossy channels. *)
  let emit c b =
    Safra.record_send c.safra;
    transmit c.p b
  in
  let route c produced =
    let p = c.p in
    span ~pid:p.pid ~round:c.local_rounds Obs.Trace.Sending (fun () ->
        let batches = Processor.route ~local:true p produced in
        (* Adaptive degradation: feed the worst channel demand (this
           step's batch plus what is still deferred or in flight) to the
           dial. Each worker only observes — and the dial only writes —
           its own processors' entries. *)
        (match dial with
         | Some d ->
           let backlog = ref 0 in
           Array.iteri
             (fun dst batch ->
               if dst <> p.pid then
                 backlog :=
                   max !backlog
                     (List.length batch
                     + Queue.length p.pending.(dst)
                     + p.credit_used.(dst)))
             batches;
           Overload.observe d ~pid:p.pid ~backlog:!backlog;
           Obs.Metrics.observe mx "dial.alpha" (Overload.alpha d p.pid)
         | None -> ());
        Array.iteri
          (fun dst batch ->
            if batch <> [] then
              Processor.dispatch ~replay:false p dst batch (emit c))
          batches;
        Processor.note_outbox p)
  in
  let announce_termination () =
    (* Any staged tuples must precede the poison pill in every queue. *)
    flush_outbuf ();
    for d = 0 to Array.length mailboxes - 1 do
      Mailbox.push mailboxes.(d) Stop
    done;
    stopped := true
  in
  (* Crash recovery: the engine is volatile and is lost; Safra and
     delivery-layer state is stable. The processor rebuilds from its
     base fragment, then broadcasts a replay request — every processor
     (itself included) re-sends its channel history to the rebuilt
     engine as fresh-sequence batches. Recovery is immediate
     ([cr_down] does not apply: an absent mailbox owner would merely
     delay its own queue). *)
  let maybe_crash c =
    let p = c.p in
    match Fault.crash_at plan ~pid:p.pid ~round:c.local_rounds with
    | Some cr when not (List.mem cr.Fault.cr_round c.crashes_fired) ->
      c.crashes_fired <- cr.Fault.cr_round :: c.crashes_fired;
      p.fc.n_crashes <- p.fc.n_crashes + 1;
      Obs.Trace.instant tr ~pid:p.pid ~round:c.local_rounds "crash";
      Processor.rebuild p;
      p.fc.n_recoveries <- p.fc.n_recoveries + 1;
      Obs.Trace.instant tr ~pid:p.pid ~round:c.local_rounds "recover";
      route c (Seminaive.bootstrap p.engine);
      for d = 0 to Array.length mailboxes - 1 do
        Mailbox.push mailboxes.(d) (Replay { requester = p.pid })
      done
    | _ -> ()
  in
  let pump_retransmits () =
    let now = Obs.Clock.now () in
    List.iter
      (fun c ->
        span ~pid:c.p.pid ~round:c.local_rounds Obs.Trace.Retransmission
          (fun () -> Processor.due c.p ~now (transmit c.p)))
      ctls
  in
  let dispatch = function
    | Data { src; dst; seq; batch } ->
      let c = ctl_of dst in
      span ~pid:dst ~round:c.local_rounds Obs.Trace.Receiving (fun () ->
          (* Under a capacity the Tack doubles as the credit grant, so
             it is sent even on fault-free runs. *)
          if faulty || credited then
            send_to_pid src (Tack { sender = src; receiver = dst; seq });
          if (not faulty) || Processor.fresh c.p (src, 0, seq) then begin
            Safra.record_receive c.safra;
            List.iter (fun (pred, tuple) -> Processor.receive c.p pred tuple) batch
          end)
    | Token { dst; token } -> (ctl_of dst).held_token <- Some token
    | Tack { sender; receiver; seq } ->
      let c = ctl_of sender in
      (* Freed credit: try to move deferred work. *)
      if Processor.ack c.p ~dst:receiver ~seq then Processor.flush c.p (emit c)
    | Replay { requester } ->
      List.iter
        (fun c ->
          let history = Processor.history c.p requester in
          if history <> [] then
            Processor.dispatch ~replay:true c.p requester history (emit c))
        ctls
    | Stop -> stopped := true
  in
  (* Returns true when some control action was taken (so the caller
     should not block yet). *)
  let passive_action c =
    let pid = c.p.pid in
    match c.held_token with
    | Some token when pid <> 0 ->
      c.held_token <- None;
      send_to_pid (pid - 1)
        (Token { dst = pid - 1; token = Safra.forward c.safra token });
      true
    | Some token ->
      c.held_token <- None;
      (match Safra.evaluate c.safra token with
       | `Terminated ->
         announce_termination ();
         true
       | `Try_again ->
         send_to_pid (n - 1) (Token { dst = n - 1; token = Safra.initial_token });
         true)
    | None ->
      if pid = 0 && not c.probe_outstanding then begin
        c.probe_outstanding <- true;
        send_to_pid (n - 1) (Token { dst = n - 1; token = Safra.initial_token });
        true
      end
      else false
  in
  (* Watchdog: on a breach, record the reason and broadcast Stop — the
     poison pill propagates cancellation; every worker then returns its
     partial results normally, so the caller can raise a structured
     [Overload] instead of hanging or dying on OOM. *)
  let breach reason =
    overload := Some reason;
    announce_termination ()
  in
  let check_limits () =
    if !overload = None && not (Overload.is_none limits) then begin
      (match limits.Overload.deadline with
       | Some seconds ->
         let elapsed = Obs.Clock.now () -. t0 in
         if elapsed > seconds then
           breach (Overload.Deadline { seconds; elapsed; round = 0 })
       | None -> ());
      List.iter
        (fun (p : Processor.t) ->
          (match limits.Overload.max_store_rows with
           | Some limit when !overload = None ->
             let rows = Overload.db_rows (Seminaive.store p.engine) in
             if rows > limit then
               breach (Overload.Store_budget { pid = p.pid; rows; limit })
           | _ -> ());
          match limits.Overload.max_outbox_rows with
          | Some limit when !overload = None ->
            let rows = Processor.pending_rows p in
            if rows > limit then
              breach (Overload.Outbox_budget { pid = p.pid; rows; limit })
          | _ -> ())
        procs
    end
  in
  (* A blocked drain must time out whenever the worker has periodic
     duties: retransmissions under a fault plan, deadline checks under
     a wall-clock limit. *)
  let timed_drain = faulty || limits.Overload.deadline <> None in
  let note_depth msgs =
    if Obs.Metrics.enabled mx then
      Obs.Metrics.observe mx "mailbox.depth" (float_of_int (List.length msgs));
    msgs
  in
  if bootstrap then
    List.iter
      (fun c ->
        route c (Seminaive.bootstrap c.p.engine);
        Obs.Trace.instant tr ~pid:c.p.pid ~round:0 "bootstrap")
      ctls;
  flush_outbuf ();
  while not !stopped do
    if faulty then pump_retransmits ();
    check_limits ();
    List.iter dispatch (note_depth (Mailbox.drain my_mailbox));
    (* Dispatching can stage sends (Tack-freed credit, replay
       histories, retransmissions pumped above): deliver them before
       doing local work. *)
    flush_outbuf ();
    if not !stopped then begin
      let worked = ref false in
      List.iter
        (fun c ->
          if faulty then maybe_crash c;
          if Seminaive.has_pending c.p.engine then begin
            worked := true;
            span ~pid:c.p.pid ~round:c.local_rounds Obs.Trace.Processing
              (fun () -> route c (Seminaive.step c.p.engine));
            c.local_rounds <- c.local_rounds + 1
          end)
        ctls;
      (* The per-phase flush: every owned processor has taken its step,
         so each destination receives the whole sweep's traffic as one
         delivery. *)
      flush_outbuf ();
      if (not !worked) && not !stopped then begin
        (* All owned processors idle: run control actions; if nothing
           moved, wait for messages — with a timeout when a fault plan
           is active, so the retransmission pump keeps running. A
           processor with credit-deferred output is NOT passive: its
           un-Tacked batches guarantee an incoming Tack, whose credit
           flushes the remainder — skipping the detector action here is
           what keeps Safra sound under deferral (nothing terminates
           while tuples wait for credit). *)
        let acted =
          List.fold_left
            (fun acc c ->
              if !stopped || Processor.has_deferred c.p then acc
              else
                span ~pid:c.p.pid ~round:c.local_rounds
                  Obs.Trace.Termination_test (fun () -> passive_action c)
                || acc)
            false ctls
        in
        if (not acted) && not !stopped then begin
          let msgs =
            if timed_drain then
              Mailbox.drain_timeout my_mailbox ~seconds:0.002
            else Mailbox.drain_blocking my_mailbox
          in
          (* A closed, empty mailbox means a peer shut the system down
             (normally or exceptionally): never stay blocked on it. *)
          if msgs = [] && Mailbox.is_closed my_mailbox then stopped := true;
          List.iter dispatch (note_depth msgs)
        end
      end
    end
  done;
  (* Stop can arrive with staged replay traffic still buffered; hand it
     over so the counters balance even on aborted runs. *)
  flush_outbuf ();
  {
    we_overload = !overload;
    we_phase_ns = Obs.Phase_timer.totals ptimer;
    we_bulk_pushes = !bulk_pushes;
    we_bulk_messages = !bulk_messages;
  }

let open_session ?(config = Run_config.default) (rw : Rewrite.t) ~edb =
  let pool = Pool.create ~config rw ~edb in
  let obs = config.Run_config.obs in
  let n = rw.nprocs in
  let t0 = Obs.Clock.now () in
  let ndomains =
    match config.Run_config.domains with
    | Some d ->
      if d < 1 then invalid_arg "Domain_runtime.run: domains must be >= 1";
      min d n
    | None -> n
  in
  let domain_of pid = pid mod ndomains in
  let faulty = not (Fault.is_none config.Run_config.fault) in
  (* Session-resident state, alive across epochs (one epoch = one
     spawn/join cycle of the domains — the initial evaluation or one
     applied batch). *)
  let procs =
    Pool.processors ~reliable:faulty ~retry_after:retry_delay pool
  in
  let phase_ns = ref [] in
  let mailbox_drops = ref 0 in
  let bulk_pushes = ref 0 in
  let bulk_messages = ref 0 in
  let stats ~pooled =
    Pool.local_stats ~phase_ns:!phase_ns ~mailbox_drops:!mailbox_drops
      ~comms:{ Stats.bulk_pushes = !bulk_pushes; bulk_messages = !bulk_messages }
      pool (Fault.counters ()) procs ~pooled
  in
  let epochs = ref 0 in
  let epoch () =
    Array.iter Processor.reset_channels procs;
    let mailboxes = Array.init ndomains (fun _ -> Mailbox.create ()) in
    let spawned =
      Array.init ndomains (fun d ->
          let own =
            List.filter (fun (p : Processor.t) -> domain_of p.pid = d)
              (Array.to_list procs)
          in
          Domain.spawn (fun () ->
              try
                worker config.Run_config.fault
                  ~limits:config.Run_config.limits ~dial:config.Run_config.dial
                  ~obs ~t0 ~bootstrap:(!epochs = 0) n mailboxes ~domain_of own
                  d
              with e ->
                (* Poison-pill shutdown: wake every peer blocked in its
                   mailbox before propagating, so one crashing domain
                   cannot leave the others stuck in [Condition.wait]. *)
                Array.iter Mailbox.close mailboxes;
                raise e))
    in
    let extras = Array.to_list spawned |> List.map Domain.join in
    incr epochs;
    List.iter
      (fun e ->
        phase_ns := Obs.Phase_timer.merge_totals !phase_ns e.we_phase_ns;
        bulk_pushes := !bulk_pushes + e.we_bulk_pushes;
        bulk_messages := !bulk_messages + e.we_bulk_messages)
      extras;
    mailbox_drops :=
      Array.fold_left (fun acc mb -> acc + Mailbox.dropped mb) !mailbox_drops
        mailboxes;
    (* The first domain's breach wins when several workers tripped at
       once. *)
    match List.find_map (fun e -> e.we_overload) extras with
    | Some reason ->
      let _, pooled = Pool.pool pool (Pool.stores procs) in
      raise (Overload.Overload { reason; stats = stats ~pooled })
    | None -> ()
  in
  epoch ();
  let apply =
    (* The patch lands between domain lifetimes: no domain is running,
       so the processors are exclusively ours while Pool installs it. *)
    Pool.apply pool procs ~drive:(fun oc ->
        if oc.Session.oc_added <> [] || oc.Session.oc_removed <> [] then epoch ())
  in
  let query pred = Pool.query pool (Pool.stores procs) pred in
  let model () = fst (Pool.pool pool (Pool.stores procs)) in
  let close () =
    let answers, pooled = Pool.pool pool (Pool.stores procs) in
    { Session.answers; stats = stats ~pooled }
  in
  Session.v ~runtime:"domains" ~apply ~query ~model ~close

let run ?config (rw : Rewrite.t) ~edb =
  Session.close (open_session ?config rw ~edb)
