open Datalog

type t = {
  rw : Rewrite.t;
  config : Run_config.t;
  edb : Database.t;
  mutable live : Stratified.Live.t option;
  mutable published : (string * int) list;
}

let create ?(config = Run_config.default) (rw : Rewrite.t) ~edb =
  (* A configuration carrying a plan certificate is only honoured after
     re-verification against the program actually being run — a stale
     certificate fails fast (Plan.Rejected) instead of silently
     executing under assumptions that no longer hold. *)
  Option.iter
    (fun plan -> Plan.validate_exn ~nprocs:rw.nprocs plan rw.original)
    config.Run_config.plan;
  (match config.Run_config.capacity with
   | Some c when c < 1 -> invalid_arg "capacity must be >= 1"
   | _ -> ());
  Overload.validate config.Run_config.limits;
  (* Base facts written in the program text join the EDB. A fact on a
     derived predicate has no place in the rewrite: no processor would
     own it, so it is refused rather than silently dropped. *)
  let combined = Database.copy edb in
  List.iter
    (fun (pred, tuple) ->
      if List.mem pred rw.derived then
        invalid_arg
          (Printf.sprintf
             "program fact %s%s is on derived predicate %s; parallel runs \
              accept facts on base predicates only"
             pred (Tuple.to_string tuple) pred)
      else ignore (Database.add_fact combined pred tuple))
    rw.original.Program.facts;
  { rw; config; edb = combined; live = None; published = [] }

let edb t = t.edb
let is_derived t pred = List.mem pred t.rw.derived

let hosts t pid pred tuple =
  t.config.Run_config.replicate_base || t.rw.resident pid pred tuple

let fragment ?(replicate = false) (rw : Rewrite.t) edb pid =
  let local = Database.create () in
  List.iter
    (fun pred ->
      match Database.find edb pred with
      | None -> ()
      | Some rel ->
        let target = Database.declare local pred (Relation.arity rel) in
        Relation.iter
          (fun t ->
            if replicate || rw.resident pid pred t then
              ignore (Relation.add target t))
          rel)
    (Database.predicates edb);
  local

let processors ~reliable ~retry_after t =
  let c = t.config in
  Array.init t.rw.nprocs (fun pid ->
      Processor.create ~pushdown:c.Run_config.pushdown
        ~capacity:c.Run_config.capacity ~reliable ~retry_after t.rw
        ~fragment:
          (fragment ~replicate:c.Run_config.replicate_base t.rw t.edb pid)
        pid)

(* The maintenance oracle is created on first [apply], so a plain run
   (open + close, no batches) never pays for it. At creation time the
   combined EDB is still the initial one, so the oracle's model matches
   the processors' pooled state. *)
let oracle t =
  match t.live with
  | Some l -> l
  | None ->
    let l =
      Stratified.Live.create ~pushdown:t.config.Run_config.pushdown
        t.rw.original ~edb:t.edb
    in
    t.live <- Some l;
    l

let incr_stats t =
  match t.live with
  | None -> Stats.no_incr
  | Some l ->
    let s = Stratified.Live.totals l in
    {
      Stats.batches_applied = Stratified.Live.batches l;
      tuples_inserted = s.Delta.s_inserted;
      tuples_deleted = s.Delta.s_deleted;
      tuples_rederived = s.Delta.s_rederived;
      tuples_overdeleted = s.Delta.s_overdeleted;
      incr_firings = s.Delta.s_firings;
    }

let apply t procs ~drive batch =
  let change = Stratified.Live.apply (oracle t) batch in
  let removed = change.Stratified.Live.c_removed in
  let added = change.Stratified.Live.c_added in
  (* Net deletions have no remaining derivation in the new model, so
     after retraction the stores hold only model tuples and any later
     local firing is a sound derivation step. *)
  if removed <> [] then Array.iter (fun p -> Processor.retract p removed) procs;
  ignore
    (Database.remove_facts t.edb
       (List.filter (fun (pred, _) -> not (is_derived t pred)) removed));
  (* Base insertions enter at the processors hosting them; the drive
     re-derives — and re-sends — their consequences. *)
  List.iter
    (fun (pred, tuple) ->
      if not (is_derived t pred) then begin
        ignore (Database.add_fact t.edb pred tuple);
        Array.iter
          (fun (p : Processor.t) ->
            if hosts t p.pid pred tuple then Processor.insert p pred tuple)
          procs
      end)
    added;
  let outcome =
    {
      Session.oc_added = added;
      oc_removed = removed;
      oc_summary = change.Stratified.Live.c_summary;
    }
  in
  drive outcome;
  outcome

(* Pool each store's relation of [preds] into [db] under the original
   name: the first contribution is copied wholesale, later ones are
   merged. A self-routed predicate's guard puts each tuple at exactly
   one processor, so its stores are disjoint and concatenate without a
   duplicate check; the others, and a predicate [db] already holds
   (derived facts in the EDB), are unioned tuple by tuple. Returns the
   tuples contributed. *)
let union_out (rw : Rewrite.t) db stores preds =
  List.fold_left
    (fun n pred ->
      let stored = Rewrite.stored_pred rw pred in
      let disjoint =
        List.mem pred rw.self_routed && Option.is_none (Database.find db pred)
      in
      List.fold_left
        (fun n store ->
          match Database.find store stored with
          | None -> n
          | Some rel ->
            (match Database.find db pred with
             | None -> Database.add_relation db pred (Relation.copy rel)
             | Some target ->
               if disjoint then ignore (Relation.add_all_new target rel)
               else ignore (Relation.add_all target rel));
            n + Relation.cardinal rel)
        n stores)
    0 preds

(* Pooling: every store's relations of the derived predicates, under
   the original names, over the current combined EDB. *)
let pool t stores =
  let answers = Database.copy t.edb in
  let pooled = union_out t.rw answers stores t.rw.derived in
  (answers, pooled)

let query t stores pred =
  let db =
    if not (is_derived t pred) then t.edb
    else begin
      let db = Database.create () in
      ignore (union_out t.rw db stores [ pred ]);
      db
    end
  in
  match Database.find db pred with
  | Some rel -> Relation.sorted_elements rel
  | None -> []

let stores procs =
  Array.to_list
    (Array.map (fun (p : Processor.t) -> Seminaive.store p.engine) procs)

let add_faults (a : Stats.faults) (b : Stats.faults) : Stats.faults =
  {
    Stats.drops = a.drops + b.drops;
    dups_injected = a.dups_injected + b.dups_injected;
    dups_suppressed = a.dups_suppressed + b.dups_suppressed;
    delays = a.delays + b.delays;
    reorders = a.reorders + b.reorders;
    retransmits = a.retransmits + b.retransmits;
    acks = a.acks + b.acks;
    crashes = a.crashes + b.crashes;
    recoveries = a.recoveries + b.recoveries;
    replayed = a.replayed + b.replayed;
    checkpoints = a.checkpoints + b.checkpoints;
    restores = a.restores + b.restores;
    mailbox_drops = a.mailbox_drops + b.mailbox_drops;
    credit_stalls = a.credit_stalls + b.credit_stalls;
    alpha_raises = a.alpha_raises + b.alpha_raises;
    alpha_decays = a.alpha_decays + b.alpha_decays;
  }

let faults ?mailbox_drops t counters (procs : Processor.t array) =
  let dial f =
    match t.config.Run_config.dial with Some d -> f d | None -> 0
  in
  Array.fold_left
    (fun acc (p : Processor.t) ->
      add_faults acc
        (Fault.freeze ~credit_stalls:p.credit_stalls p.Processor.fc))
    (Fault.freeze ?mailbox_drops ~alpha_raises:(dial Overload.raises)
       ~alpha_decays:(dial Overload.decays) counters)
    procs

(* The metrics registry's runtime series, written from the report
   itself, so they equal the Stats counters by construction. A pool
   that reports again (a session closed after an aborted drive) adds
   only what changed since its last report. *)
let publish t (s : Stats.t) =
  let mx = t.config.Run_config.obs.Obs.metrics in
  if Obs.Metrics.enabled mx then begin
    let received =
      Array.fold_left (fun n r -> n + r.Stats.tuples_received) 0 s.per_proc
    in
    let now =
      [
        ("joiner.probes", Stats.total_join_probes s);
        ("runtime.credit_stalls", s.faults.credit_stalls);
        ("runtime.duplicate_firings", Stats.total_duplicate_firings s);
        ("runtime.firings", Stats.total_firings s);
        ("runtime.new_tuples", Stats.total_new_tuples s);
        ("runtime.retransmits", s.faults.retransmits);
        ("runtime.tuples_received", received);
        ("runtime.tuples_sent", Stats.total_messages ~include_self:true s);
      ]
    in
    List.iter
      (fun (name, v) ->
        let before =
          Option.value (List.assoc_opt name t.published) ~default:0
        in
        Obs.Metrics.incr mx ~by:(v - before) name)
      now;
    t.published <- now;
    Obs.Metrics.max_gauge mx "runtime.peak_in_flight" s.peak_in_flight
  end

let stats ?rounds ?(trace = []) ?(transport = Stats.no_transport)
    ?(phase_ns = []) ?(comms = Stats.no_comms) t ~per_proc ~channel_tuples
    ~pooled ~faults ~peak_in_flight : Stats.t =
  let s : Stats.t =
    {
      incr = incr_stats t;
      nprocs = t.rw.nprocs;
      rounds =
        (match rounds with
         | Some r -> r
         | None ->
           Array.fold_left
             (fun acc (r : Stats.per_proc) -> max acc r.iterations)
             0 per_proc);
      per_proc;
      channel_tuples;
      pooled_tuples = pooled;
      trace;
      faults;
      transport;
      peak_in_flight;
      phase_ns;
      comms;
    }
  in
  publish t s;
  s

let local_stats ?rounds ?trace ?phase_ns ?comms ?mailbox_drops ?active_rounds
    t counters procs ~pooled =
  stats ?rounds ?trace ?phase_ns ?comms t ~pooled
    ~per_proc:
      (Array.map
         (fun (p : Processor.t) ->
           Processor.row ?active_rounds:(Option.map (fun f -> f p) active_rounds) p)
         procs)
    ~channel_tuples:(Array.map (fun (p : Processor.t) -> Array.copy p.sent_row) procs)
    ~faults:(faults ?mailbox_drops t counters procs)
    ~peak_in_flight:
      (Array.fold_left
         (fun acc (p : Processor.t) -> max acc p.peak_in_flight)
         0 procs)
