open Datalog

let log_src = Logs.Src.create "pardatalog.sim" ~doc:"simulated parallel runtime"

module Log = (val Logs.src_log log_src)

type result = Session.result = {
  answers : Database.t;
  stats : Stats.t;
}

(* The round transport's per-processor state; the engine, channels and
   counters live in the processor. *)
type sim_state = {
  p : Processor.t;
  outbox : (string * Tuple.t) Queue.t;  (* produced, not yet routed *)
  (* delivered, not yet injected; tagged with the sender and sequence
     number so receipt can return that channel's credit *)
  inbox : (Pid.t * int * string * Tuple.t) Queue.t;
  all_out : (string * Tuple.t) Queue.t;  (* cumulative, for resend_all *)
  mutable active_rounds : int;
  mutable alive : bool;
  mutable down_until : int;  (* first round eligible for recovery *)
  (* Engine snapshot plus the outbox at the same instant: a tuple
     derived in round r is routed only in round r+1, so a checkpoint
     that captured the engine alone would leave such a tuple in the
     restored full database (never re-derived) yet absent from every
     channel history (never replayed) — silently lost. *)
  mutable checkpoint : (Seminaive.snapshot * (string * Tuple.t) list) option;
}

(* One transmission of a one-tuple batch on the reliable layer. *)
type fmsg =
  | Fdata of { fm_src : Pid.t; fm_batch : Processor.batch; fm_attempt : int }
  | Fack of { fm_sender : Pid.t; fm_receiver : Pid.t; fm_seq : int }

let open_session ?(config = Run_config.default) (rw : Rewrite.t) ~edb =
  let options : Run_config.t = config in
  let pool = Pool.create ~config rw ~edb in
  let tr = config.Run_config.obs.Obs.trace in
  let mx = config.Run_config.obs.Obs.metrics in
  (* Wall-clock accumulator behind [Stats.phase_ns]: unlike the trace
     sink it is always on — one monotonic clock pair per phase span. *)
  let ptimer = Obs.Phase_timer.create ~metrics:mx () in
  let span ~pid ~round phase f =
    Obs.Phase_timer.span ptimer tr ~pid ~round phase f
  in
  let nprocs = rw.nprocs in
  let plan = options.fault in
  (* With [Fault.none] the delivery layer is bypassed entirely and the
     run takes the exact fault-free code path. *)
  let faulty = not (Fault.is_none plan) in
  let credited = options.capacity <> None in
  if faulty && options.resend_all then
    invalid_arg
      "Sim_runtime.run: resend_all cannot be combined with fault injection \
       (every round's re-sends would take fresh sequence numbers and the \
       unacknowledged buffers would never drain)";
  if credited && options.resend_all then
    invalid_arg
      "Sim_runtime.run: resend_all cannot be combined with a channel \
       capacity (re-sending the whole output every round outgrows any \
       bound)";
  let fc = Fault.counters () in
  (* The channel layer — histories, pending queues, sequence numbers,
     unacked buffers, credit and the [(src, inc, seq)] duplicate
     filter — is stable storage in the fault model and survives
     processor crashes; only the engine and the inbox are volatile.
     Replays take fresh sequence numbers, so they pass the filter and
     reach a rebuilt engine. *)
  let procs =
    Pool.processors ~reliable:faulty
      ~retry_after:(fun attempt -> float_of_int (Fault.retransmit_after ~attempt))
      pool
  in
  let sims =
    Array.map
      (fun p ->
        {
          p;
          outbox = Queue.create ();
          inbox = Queue.create ();
          all_out = Queue.create ();
          active_rounds = 0;
          alive = true;
          down_until = 0;
          checkpoint = None;
        })
      procs
  in
  let sent_this_round = Array.make_matrix nprocs nprocs 0 in
  (* replay_due.(q).(p): q was down when p recovered, so q still owes p
     a replay of its channel history, performed at q's own recovery. *)
  let replay_due = Array.make_matrix nprocs nprocs false in
  let flight : (int, fmsg list ref) Hashtbl.t = Hashtbl.create 32 in
  let flight_size = ref 0 in
  let rounds = ref 0 in
  let schedule at msg =
    incr flight_size;
    match Hashtbl.find_opt flight at with
    | Some l -> l := msg :: !l
    | None -> Hashtbl.add flight at (ref [ msg ])
  in
  let transmit src (b : Processor.batch) =
    let attempt =
      Processor.transmitted procs.(src) b ~now:(float_of_int !rounds)
    in
    let copies, fate =
      Fault.deliveries plan fc ~src ~dst:b.dst ~seq:b.seq ~attempt
    in
    let at = !rounds + fate.f_delay + fate.f_jitter in
    for _ = 1 to copies do
      schedule at (Fdata { fm_src = src; fm_batch = b; fm_attempt = attempt })
    done
  in
  let check_channel src dst =
    match options.network with
    | Some net when not (Netgraph.mem net src dst) ->
      failwith
        (Printf.sprintf
           "Sim_runtime.run: tuple routed along missing channel %d -> %d \
            (Definition 3 violation)"
           src dst)
    | _ -> ()
  in
  let route ~dedup s =
    let batches =
      Processor.route ~dedup s.p
        (List.of_seq (Queue.to_seq (if dedup then s.outbox else s.all_out)))
    in
    Array.iteri
      (fun dst batch ->
        if batch <> [] then begin
          check_channel s.p.pid dst;
          Processor.enqueue ~replay:false s.p dst batch
        end)
      batches
  in
  (* The credit-gated pump: move pending tuples onto the wire, one
     tuple per payload, while the channel has credit. Message counters
     tick here (not at routing), so they still mean "tuples actually
     put on the channel". *)
  let pump () =
    Array.iter
      (fun (p : Processor.t) ->
        Processor.flush ~per_tuple:true p (fun b ->
            if not b.replay then
              sent_this_round.(p.pid).(b.dst) <-
                sent_this_round.(p.pid).(b.dst) + 1;
            if faulty then transmit p.pid b
            else
              List.iter
                (fun (pred, tuple) ->
                  Queue.add (p.pid, b.seq, pred, tuple) sims.(b.dst).inbox)
                b.tuples))
      procs
  in
  let collect_new s produced =
    List.iter
      (fun (out_name, tuple) ->
        let pred = Rewrite.original_pred out_name in
        if Pool.is_derived pool pred then begin
          Queue.add (pred, tuple) s.outbox;
          if options.resend_all then Queue.add (pred, tuple) s.all_out
        end)
      produced
  in
  (* Initialization: bootstrap every processor's program; its
     production counts form trace row 0. *)
  let boot_row = Array.make nprocs 0 in
  Array.iter
    (fun s ->
      let produced = Seminaive.bootstrap s.p.engine in
      Obs.Trace.instant tr ~pid:s.p.pid ~round:0 "bootstrap";
      boot_row.(s.p.pid) <- List.length produced;
      collect_new s produced)
    sims;
  let trace = ref [ boot_row ] in
  let build_stats ~pooled =
    Pool.local_stats ~rounds:!rounds ~trace:(List.rev !trace)
      ~phase_ns:(Obs.Phase_timer.totals ptimer)
      ~active_rounds:(fun p -> sims.(p.Processor.pid).active_rounds)
      pool fc procs ~pooled
  in
  let live_count () =
    Array.fold_left (fun n s -> if s.alive then n + 1 else n) 0 sims
  in
  let replay_history ~src ~dst =
    Processor.enqueue ~replay:true procs.(src) dst
      (List.rev (Processor.history procs.(src) dst))
  in
  let do_crash s (c : Fault.crash) =
    let pid = s.p.pid in
    if live_count () <= 1 then
      Log.info (fun m ->
          m "round %d: crash of processor %d skipped (last live processor)"
            !rounds pid)
    else begin
      fc.n_crashes <- fc.n_crashes + 1;
      s.alive <- false;
      s.down_until <- !rounds + c.cr_down;
      Queue.clear s.outbox;
      Queue.clear s.inbox;
      Obs.Trace.instant tr ~pid ~round:!rounds "crash";
      Log.info (fun m ->
          m "round %d: processor %d crashed, down for %d round(s)" !rounds
            pid c.cr_down)
    end
  in
  let do_recover s =
    let pid = s.p.pid in
    fc.n_recoveries <- fc.n_recoveries + 1;
    let survivor =
      Option.value ~default:pid
        (Array.find_map (fun q -> if q.alive then Some q.p.pid else None) sims)
    in
    (match s.checkpoint with
     | Some (snapshot, saved_outbox) ->
       fc.n_restores <- fc.n_restores + 1;
       Processor.rebuild ~snapshot s.p;
       (* Products awaiting routing when the snapshot was taken; the
          per-channel dedup drops any that did get sent before the
          crash. *)
       List.iter (fun kt -> Queue.add kt s.outbox) saved_outbox
     | None ->
       Processor.rebuild s.p;
       collect_new s (Seminaive.bootstrap s.p.engine));
    s.alive <- true;
    Obs.Trace.instant tr ~pid ~round:!rounds "recover";
    (* Bucket reassignment: the bucket h(v(r)) = pid is rebuilt (hosted
       by the first survivor), then every live peer — the processor's
       own loop channel included — replays its channel history so the
       rebuilt engine re-receives every tuple the dead one had. Peers
       currently down owe their replay at their own recovery. *)
    Array.iter
      (fun q ->
        if q.alive then replay_history ~src:q.p.pid ~dst:pid
        else replay_due.(q.p.pid).(pid) <- true)
      sims;
    for dst = 0 to nprocs - 1 do
      if replay_due.(pid).(dst) then begin
        replay_due.(pid).(dst) <- false;
        replay_history ~src:pid ~dst
      end
    done;
    Log.info (fun m ->
        m "round %d: processor %d recovered (%s; bucket rebuilt via %d)"
          !rounds pid
          (if Option.is_some s.checkpoint then "from checkpoint"
           else "from base fragment")
          survivor)
  in
  let deliver_due () =
    match Hashtbl.find_opt flight !rounds with
    | None -> ()
    | Some msgs ->
      Hashtbl.remove flight !rounds;
      List.iter
        (fun msg ->
          decr flight_size;
          match msg with
          | Fack { fm_sender; fm_receiver; fm_seq } ->
            (* The ack doubles as a credit grant. *)
            ignore (Processor.ack procs.(fm_sender) ~dst:fm_receiver ~seq:fm_seq)
          | Fdata { fm_src = src; fm_batch = b; fm_attempt } ->
            let s = sims.(b.dst) in
            if not s.alive then
              (* A message arriving at a dead processor is lost; the
                 sender's unacked buffer retransmits it later. *)
              fc.n_drops <- fc.n_drops + 1
            else begin
              if
                not
                  (Fault.ack_dropped plan ~src ~dst:b.dst ~seq:b.seq
                     ~attempt:fm_attempt)
              then
                schedule (!rounds + 1)
                  (Fack { fm_sender = src; fm_receiver = b.dst; fm_seq = b.seq });
              (* One payload, one [(src, inc, seq)] receipt, as on the
                 real transports; the simulator has one incarnation. *)
              if Processor.fresh s.p (src, 0, b.seq) then
                List.iter
                  (fun (pred, tuple) ->
                    Queue.add (src, b.seq, pred, tuple) s.inbox)
                  b.tuples
            end)
        (List.rev !msgs)
  in
  let retransmit_due () =
    Array.iter
      (fun (p : Processor.t) ->
        span ~pid:p.pid ~round:!rounds Obs.Trace.Retransmission (fun () ->
            Processor.due p ~now:(float_of_int !rounds) (transmit p.pid)))
      procs
  in
  let drain_inbox s =
    if
      faulty
      && Queue.length s.inbox > 1
      && Fault.reorder_inbox plan ~pid:s.p.pid ~round:!rounds
    then begin
      fc.n_reorders <- fc.n_reorders + 1;
      let arr = Array.of_seq (Queue.to_seq s.inbox) in
      Fault.shuffle plan ~pid:s.p.pid ~round:!rounds arr;
      Queue.clear s.inbox;
      Array.iter (fun x -> Queue.add x s.inbox) arr
    end;
    Queue.iter
      (fun (src, seq, pred, tuple) ->
        (* Fault-free credit returns on receipt; under faults the ack
           carries it back instead. *)
        if credited && not faulty then
          ignore (Processor.ack procs.(src) ~dst:s.p.pid ~seq);
        Processor.receive s.p pred tuple)
      s.inbox;
    Queue.clear s.inbox
  in
  let overload reason =
    raise (Overload.Overload { reason; stats = build_stats ~pooled:0 })
  in
  (* The drive loop: repeat rounds until global quiescence. A session
     re-enters it on every applied batch; [max_rounds] is the
     cumulative budget across the whole session, the deadline runs per
     drive. *)
  let drive () =
  let since = Obs.Clock.now () in
  let continue = ref true in
  while !continue do
    if !rounds >= options.max_rounds then
      overload (Overload.Round_budget { round = !rounds });
    let round_now = !rounds in
    (* Fault schedule: crashes first, then due recoveries. *)
    if faulty then begin
      Array.iter
        (fun s ->
          if s.alive then
            Option.iter (do_crash s)
              (Processor.crash_due s.p plan ~round:!rounds))
        sims;
      Array.iter
        (fun s -> if (not s.alive) && !rounds >= s.down_until then do_recover s)
        sims
    end;
    (* Sending. *)
    Array.iter
      (fun s ->
        span ~pid:s.p.pid ~round:round_now Obs.Trace.Sending (fun () ->
            if s.alive then begin
              route ~dedup:(not options.resend_all) s;
              Queue.clear s.outbox
            end))
      sims;
    (* Transmission: push pending tuples onto the wire, channel credit
       permitting. *)
    pump ();
    (* Transport: retransmit overdue payloads, then deliver everything
       landing this round (acknowledgements included). *)
    if faulty then begin
      retransmit_due ();
      span ~pid:Obs.Trace.transport_pid ~round:round_now
        Obs.Trace.Delivery deliver_due
    end;
    (* Receiving: drain inboxes into the engines (duplicate
       elimination happens in inject). *)
    Array.iter
      (fun s ->
        span ~pid:s.p.pid ~round:round_now Obs.Trace.Receiving (fun () ->
            if s.alive then drain_inbox s))
      sims;
    (* Processing: one semi-naive iteration per live processor. *)
    let any_progress = ref false in
    let round_row = Array.make nprocs 0 in
    Array.iter
      (fun s ->
        span ~pid:s.p.pid ~round:round_now Obs.Trace.Processing (fun () ->
            if s.alive && Seminaive.has_pending s.p.engine then begin
              let produced = Seminaive.step s.p.engine in
              s.active_rounds <- s.active_rounds + 1;
              any_progress := true;
              round_row.(s.p.pid) <- List.length produced;
              collect_new s produced
            end))
      sims;
    let produced_this_round = Array.fold_left ( + ) 0 round_row in
    Obs.Metrics.observe mx "round.new_tuples"
      (float_of_int produced_this_round);
    trace := round_row :: !trace;
    incr rounds;
    (* Checkpointing: a stable-storage write at the end of the round. *)
    (match plan.Fault.checkpoint_every with
     | Some k when faulty && !rounds mod k = 0 ->
       Array.iter
         (fun s ->
           if s.alive then
             span ~pid:s.p.pid ~round:round_now Obs.Trace.Checkpointing
               (fun () ->
                 s.checkpoint <-
                   Some
                     ( Seminaive.snapshot s.p.engine,
                       List.of_seq (Queue.to_seq s.outbox) );
                 fc.n_checkpoints <- fc.n_checkpoints + 1))
         sims
     | _ -> ());
    (* Watchdog: outbox peaks and the budgets, measured when the
       round's production has landed; the unrouted outbox is this
       driver's own backlog. *)
    Array.iter
      (fun s ->
        Processor.note_outbox ~rows:(Queue.length s.outbox)
          ~bytes:(fun () ->
            Queue.fold (fun n (_, t) -> n + (Tuple.arity t * 8)) 0 s.outbox)
          s.p;
        Option.iter overload
          (Processor.watchdog options.limits ~since ~round:!rounds
             ~backlog:(fun _ -> Queue.length s.outbox)
             [ s.p ]))
      sims;
    (* Adaptive degradation: feed each processor's worst channel demand
       (sent + still pending this round) to the dial; the new alpha
       takes effect on the next round's routing. *)
    (match options.dial with
     | Some d ->
       Array.iter
         (fun (p : Processor.t) ->
           let backlog = ref 0 in
           for dst = 0 to nprocs - 1 do
             if dst <> p.pid then
               backlog :=
                 max !backlog
                   (sent_this_round.(p.pid).(dst) + Queue.length p.pending.(dst))
           done;
           Overload.observe d ~pid:p.pid ~backlog:!backlog;
           Obs.Metrics.observe mx "dial.alpha" (Overload.alpha d p.pid))
         procs
     | None -> ());
    Array.iter (fun row -> Array.fill row 0 nprocs 0) sent_this_round;
    Log.debug (fun m ->
        m "round %d: %d new tuples, %d tuples on channels so far" !rounds
          produced_this_round
          (Array.fold_left
             (fun acc (p : Processor.t) -> Array.fold_left ( + ) acc p.sent_row)
             0 procs));
    (* Termination: all processors up and idle, all channels empty, no
       payload in flight or awaiting acknowledgement. The per-processor
       part runs under a span (and therefore for every processor, no
       short-circuit) so the trace shows the test each round. *)
    let proc_busy s =
      span ~pid:s.p.pid ~round:round_now Obs.Trace.Termination_test (fun () ->
          (not (Queue.is_empty s.outbox))
          || (not (Queue.is_empty s.inbox))
          || (s.alive && Seminaive.has_pending s.p.engine))
    in
    let any_busy = Array.fold_left (fun acc s -> proc_busy s || acc) false sims in
    continue :=
      !any_progress || any_busy
      || Array.exists Processor.has_deferred procs
      || faulty
         && (!flight_size > 0
            || Array.exists (fun s -> not s.alive) sims
            || Array.exists
                 (fun (p : Processor.t) ->
                   Array.exists (fun tbl -> Hashtbl.length tbl > 0) p.unacked)
                 procs)
  done
  in
  drive ();
  let apply =
    Pool.apply pool procs ~drive:(fun oc ->
        let removed = oc.Session.oc_removed in
        if removed <> [] then begin
          (* A checkpoint predating the patch would resurrect the
             retracted tuples on restore. *)
          Array.iter (fun s -> s.checkpoint <- None) sims;
          if options.resend_all then begin
            let gone = Fact.Tbl.create 16 in
            List.iter (fun key -> Fact.Tbl.replace gone key ()) removed;
            Array.iter
              (fun s ->
                let keep =
                  List.filter
                    (fun key -> not (Fact.Tbl.mem gone key))
                    (List.of_seq (Queue.to_seq s.all_out))
                in
                Queue.clear s.all_out;
                List.iter (fun kt -> Queue.add kt s.all_out) keep)
              sims
          end
        end;
        drive ())
  in
  let query pred = Pool.query pool (Pool.stores procs) pred in
  let model () = fst (Pool.pool pool (Pool.stores procs)) in
  let close () =
    let answers, pooled = Pool.pool pool (Pool.stores procs) in
    { answers; stats = build_stats ~pooled }
  in
  Session.v ~runtime:"sim" ~apply ~query ~model ~close

let run ?config (rw : Rewrite.t) ~edb =
  Session.close (open_session ?config rw ~edb)
