open Datalog

type batch = {
  dst : int;
  seq : int;
  tuples : (string * Tuple.t) list;
  replay : bool;
  mutable attempt : int;
  mutable retry_at : float;
}

(* One derived predicate's routing, resolved once at [create]: its
   names, the send specs of its consuming atoms staged for this sender,
   and the engine inlet that takes its self-addressed tuples (dropped
   when [rebuild] replaces the engine). *)
type route = {
  r_pred : string;
  r_out : string;
  r_in : string;
  r_dests : (Tuple.t -> Pid.t list) array;
  mutable r_inlet : Seminaive.inlet option;
}

type t = {
  pid : int;
  rewrite : Rewrite.t;
  program : Program.t;
  pushdown : bool;
  fragment : Database.t;
  mutable engine : Seminaive.t;
  routes : route array;
  capacity : int option;
  reliable : bool;
  retry_after : int -> float;
  fc : Fault.counters;
  history : unit Fact.Tbl.t array;
  stamp : int array;
  mutable production : int;
  next_seq : int array;
  unacked : (int, batch) Hashtbl.t array;
  seen : (int * int * int, unit) Hashtbl.t;
  pending : (string * Tuple.t * bool) Queue.t array;
  credit_used : int array;
  inflight : (int, int) Hashtbl.t array;
  sent_row : int array;
  mutable received : int;
  mutable accepted : int;
  mutable outbox_peak_rows : int;
  mutable outbox_peak_bytes : int;
  mutable credit_stalls : int;
  mutable peak_in_flight : int;
  mutable lost : Seminaive.stats;
  mutable lost_probes : int;
  mutable crashes_done : int list;
}

let no_work =
  { Seminaive.iterations = 0; firings = 0; new_tuples = 0; duplicate_firings = 0 }

let create ?(fc = Fault.counters ()) ?(crashes_done = []) ~pushdown
    ~capacity ~reliable ~retry_after (rw : Rewrite.t) ~fragment pid =
  let n = rw.nprocs in
  (* A self-routed predicate never leaves its engine: no route. *)
  let routes =
    Array.of_list
      (List.filter_map
         (fun pred ->
           if List.mem pred rw.self_routed then None
           else
             Some
               {
                 r_pred = pred;
                 r_out = Rewrite.out_pred pred;
                 r_in = Rewrite.in_pred pred;
                 r_dests =
                   Array.of_list
                     (List.filter_map
                        (fun (s : Rewrite.send_spec) ->
                          if String.equal s.ss_pred pred then
                            Some (s.ss_route pid)
                          else None)
                        rw.sends);
                 r_inlet = None;
               })
         rw.derived)
  in
  let program = rw.programs.(pid) in
  {
    pid;
    rewrite = rw;
    program;
    pushdown;
    fragment;
    engine = Seminaive.create ~pushdown program ~edb:fragment;
    routes;
    capacity;
    reliable;
    retry_after;
    fc;
    history =
      Array.init n (fun _ -> Fact.Tbl.create (if reliable then 64 else 1));
    stamp = Array.make n (-1);
    production = 0;
    next_seq = Array.make n 0;
    unacked = Array.init n (fun _ -> Hashtbl.create 8);
    seen = Hashtbl.create 16;
    pending = Array.init n (fun _ -> Queue.create ());
    credit_used = Array.make n 0;
    inflight = Array.init n (fun _ -> Hashtbl.create 8);
    sent_row = Array.make n 0;
    received = 0;
    accepted = 0;
    outbox_peak_rows = 0;
    outbox_peak_bytes = 0;
    credit_stalls = 0;
    peak_in_flight = 0;
    lost = no_work;
    lost_probes = 0;
    crashes_done;
  }

let reset_channels p =
  Array.fill p.next_seq 0 (Array.length p.next_seq) 0;
  Array.iter Hashtbl.reset p.unacked;
  Hashtbl.reset p.seen;
  Array.iter Queue.clear p.pending;
  Array.fill p.credit_used 0 (Array.length p.credit_used) 0;
  Array.iter Hashtbl.reset p.inflight

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)

let totals p =
  let e = Seminaive.stats p.engine and l = p.lost in
  {
    Seminaive.iterations = e.Seminaive.iterations + l.Seminaive.iterations;
    firings = e.Seminaive.firings + l.Seminaive.firings;
    new_tuples = e.Seminaive.new_tuples + l.Seminaive.new_tuples;
    duplicate_firings =
      e.Seminaive.duplicate_firings + l.Seminaive.duplicate_firings;
  }

(* The engine is volatile: its work so far is folded into [lost] so the
   final firings stay honest about redundant re-derivation, and a new
   engine resumes from the snapshot or starts over the base fragment.
   The channel layer is stable and survives. *)
let rebuild ?snapshot p =
  p.lost <- totals p;
  p.lost_probes <- p.lost_probes + Seminaive.join_probes p.engine;
  Array.iter (fun r -> r.r_inlet <- None) p.routes;
  p.engine <-
    (match snapshot with
     | Some snap -> Seminaive.restore ~pushdown:p.pushdown p.program snap
     | None -> Seminaive.create ~pushdown:p.pushdown p.program ~edb:p.fragment)

(* The firing is recorded in the processor, not the driver's per-epoch
   state, so a session's later drives never fire the crash again. *)
let crash_due p plan ~round =
  match Fault.crash_at plan ~pid:p.pid ~round with
  | Some c when not (List.mem round p.crashes_done) ->
    p.crashes_done <- round :: p.crashes_done;
    Some c
  | _ -> None

let row ?active_rounds ?(store = true) p : Stats.per_proc =
  let s = totals p in
  let store_rows, store_bytes =
    if store then
      let db = Seminaive.store p.engine in
      (Overload.db_rows db, Overload.db_bytes db)
    else (0, 0)
  in
  {
    Stats.pid = p.pid;
    firings = s.Seminaive.firings;
    new_tuples = s.Seminaive.new_tuples;
    duplicate_firings = s.Seminaive.duplicate_firings;
    join_probes = Seminaive.join_probes p.engine + p.lost_probes;
    iterations = s.Seminaive.iterations;
    tuples_sent = Array.fold_left ( + ) 0 p.sent_row;
    tuples_received = p.received;
    tuples_accepted = p.accepted;
    base_resident = Database.total_tuples p.fragment;
    active_rounds = Option.value active_rounds ~default:s.Seminaive.iterations;
    store_rows;
    store_bytes;
    outbox_peak_rows = p.outbox_peak_rows;
    outbox_peak_bytes = p.outbox_peak_bytes;
  }

(* ------------------------------------------------------------------ *)
(* Sending                                                             *)

(* The route of a produced name — a step's [@out] name or an original
   one — or [-1]. A handful of derived predicates at most, so a scan. *)
let route_index p name =
  let rec find i =
    if i = Array.length p.routes then -1
    else
      let r = p.routes.(i) in
      if String.equal r.r_out name || String.equal r.r_pred name then i
      else find (i + 1)
  in
  find 0

let inlet p r tuple =
  match r.r_inlet with
  | Some i -> i
  | None ->
    let i = Seminaive.inlet p.engine r.r_in ~arity:(Tuple.arity tuple) in
    r.r_inlet <- Some i;
    i

(* Receipt into an [@in] relation: counted as received, and as
   accepted when the engine did not know the tuple. *)
let accept p fresh =
  p.received <- p.received + 1;
  if fresh then p.accepted <- p.accepted + 1

(* A tuple the processor addresses to itself, delivered on the spot:
   the engine's own canonical row goes straight into its [@in]
   relation, counted as one tuple sent on the self channel and
   received. *)
let deliver_self p r tuple =
  p.sent_row.(p.pid) <- p.sent_row.(p.pid) + 1;
  accept p (Seminaive.deliver (inlet p r tuple) tuple)

(* Channel dedup, the paper's difference-based resend suppression: a
   (pred, tuple) pair travels each channel at most once. The engine
   produces each tuple once, so within one production is enough —
   unless the reliable layer is armed, whose per-channel history is
   recovery state (the replay source, like [unacked]) and doubles as
   the filter across productions, e.g. a rebuilt engine's re-derived
   tuples. *)
let route ?(dedup = true) ?(local = false) p produced =
  let batches = Array.make (Array.length p.history) [] in
  let keep = dedup && p.reliable in
  let sent_before r tuple dst =
    if keep then
      Fact.Tbl.mem p.history.(dst) (r.r_pred, tuple)
      || (Fact.Tbl.add p.history.(dst) (r.r_pred, tuple) (); false)
    else
      dedup
      && (p.stamp.(dst) = p.production
         || (p.stamp.(dst) <- p.production; false))
  in
  let rec send r tuple = function
    | [] -> ()
    | dst :: dsts ->
      if not (sent_before r tuple dst) then
        if local && dst = p.pid then deliver_self p r tuple
        else batches.(dst) <- (r.r_pred, tuple) :: batches.(dst);
      send r tuple dsts
  in
  List.iter
    (fun (name, tuple) ->
      let i = route_index p name in
      if i >= 0 then begin
        let r = p.routes.(i) in
        p.production <- p.production + 1;
        for k = 0 to Array.length r.r_dests - 1 do
          send r tuple (r.r_dests.(k) tuple)
        done
      end)
    produced;
  Array.map List.rev batches

let history p dst =
  Fact.Tbl.fold (fun key () acc -> key :: acc) p.history.(dst) []

let enqueue ~replay p dst tuples =
  List.iter (fun (pred, t) -> Queue.add (pred, t, replay) p.pending.(dst)) tuples

(* Put one batch on channel [p.pid -> dst]: a fresh sequence number,
   the sent/replayed counters, the credit it occupies and — on the
   reliable layer — its slot in the unacknowledged buffer. Replays
   re-deliver history and are not counted as fresh communication. *)
let send p dst entries =
  let seq = p.next_seq.(dst) in
  p.next_seq.(dst) <- seq + 1;
  List.iter
    (fun (_, _, replay) ->
      if replay then p.fc.Fault.n_replayed <- p.fc.Fault.n_replayed + 1
      else p.sent_row.(dst) <- p.sent_row.(dst) + 1)
    entries;
  (match p.capacity with
   | None -> ()
   | Some _ ->
     let size = List.length entries in
     p.credit_used.(dst) <- p.credit_used.(dst) + size;
     if p.credit_used.(dst) > p.peak_in_flight then
       p.peak_in_flight <- p.credit_used.(dst);
     Hashtbl.replace p.inflight.(dst) seq size);
  let b =
    {
      dst;
      seq;
      tuples = List.map (fun (pred, t, _) -> (pred, t)) entries;
      replay = List.for_all (fun (_, _, r) -> r) entries;
      attempt = 0;
      retry_at = 0.0;
    }
  in
  if p.reliable then Hashtbl.replace p.unacked.(dst) seq b;
  b

(* Move deferred tuples onto the wire while the channel has credit,
   splitting to fit the remaining room ([per_tuple]: one tuple per
   batch), and hand each batch to [emit]. A channel left with deferred
   tuples counts one credit stall. *)
let flush ?(per_tuple = false) p emit =
  Array.iteri
    (fun dst q ->
      if not (Queue.is_empty q) then begin
        let room () =
          match p.capacity with
          | None -> max_int
          | Some k -> k - p.credit_used.(dst)
        in
        let stalled = ref false in
        while
          (not (Queue.is_empty q)) && (room () > 0 || (stalled := true; false))
        do
          let limit = if per_tuple then 1 else room () in
          let entries = ref [] in
          let count = ref 0 in
          while !count < limit && not (Queue.is_empty q) do
            entries := Queue.pop q :: !entries;
            incr count
          done;
          emit (send p dst (List.rev !entries))
        done;
        if !stalled then p.credit_stalls <- p.credit_stalls + 1
      end)
    p.pending

(* Directly when unbounded, through the credit gate under a capacity.
   Deferral is never a loss: an un-acked batch is outstanding whenever
   anything is deferred, so the credit that flushes the rest arrives. *)
let dispatch ~replay p dst tuples emit =
  match p.capacity with
  | None -> emit (send p dst (List.map (fun (pred, t) -> (pred, t, replay)) tuples))
  | Some _ ->
    enqueue ~replay p dst tuples;
    flush p emit

let pending_rows p =
  Array.fold_left (fun n q -> n + Queue.length q) 0 p.pending

let has_deferred p = Array.exists (fun q -> not (Queue.is_empty q)) p.pending

let note_outbox ?(rows = 0) ?(bytes = fun () -> 0) p =
  let total = rows + pending_rows p in
  if total > p.outbox_peak_rows then begin
    p.outbox_peak_rows <- total;
    p.outbox_peak_bytes <-
      Array.fold_left
        (fun n q -> Queue.fold (fun n (_, t, _) -> n + (Tuple.arity t * 8)) n q)
        (bytes ()) p.pending
  end

(* The asynchronous drivers' send step. The dial's demand is measured
   before dispatch: a channel's new batch plus what it already holds
   deferred or in flight. *)
let ship ?(replay = false) ?demand p produced emit =
  let batches = route ~local:(not replay) p produced in
  Option.iter
    (fun f ->
      let worst = ref 0 in
      Array.iteri
        (fun dst batch ->
          if dst <> p.pid then
            worst :=
              max !worst
                (List.length batch + Queue.length p.pending.(dst)
               + p.credit_used.(dst)))
        batches;
      f !worst)
    demand;
  Array.iteri
    (fun dst batch -> if batch <> [] then dispatch ~replay p dst batch emit)
    batches;
  note_outbox p

(* One definition of every budget for all three drivers. The deadline
   runs from the drive's start, so time a session spends idle between
   drives never counts against it. *)
let watchdog (limits : Overload.limits) ?since ?(round = 0)
    ?(backlog = fun _ -> 0) ps =
  let over budget measure breach =
    Option.bind budget (fun limit ->
        let v = measure () in
        if v > limit then Some (breach v limit) else None)
  in
  let deadline t0 =
    over limits.deadline
      (fun () -> Obs.Clock.now () -. t0)
      (fun elapsed seconds -> Overload.Deadline { seconds; elapsed; round })
  in
  let budgets p =
    match
      over limits.max_store_rows
        (fun () -> Overload.db_rows (Seminaive.store p.engine))
        (fun rows limit -> Overload.Store_budget { pid = p.pid; rows; limit })
    with
    | None ->
      over limits.max_outbox_rows
        (fun () -> backlog p + pending_rows p)
        (fun rows limit -> Overload.Outbox_budget { pid = p.pid; rows; limit })
    | breach -> breach
  in
  if Overload.is_none limits then None
  else
    match Option.bind since deadline with
    | None -> List.find_map budgets ps
    | breach -> breach

(* ------------------------------------------------------------------ *)
(* Reliable layer                                                      *)

let transmitted p b ~now =
  let attempt = b.attempt in
  b.attempt <- attempt + 1;
  b.retry_at <- now +. p.retry_after attempt;
  attempt

let due p ~now emit =
  Array.iter
    (Hashtbl.iter (fun _ b ->
         if b.retry_at <= now then begin
           p.fc.Fault.n_retransmits <- p.fc.Fault.n_retransmits + 1;
           emit b
         end))
    p.unacked

let ack p ~dst ~seq =
  if Hashtbl.mem p.unacked.(dst) seq then begin
    Hashtbl.remove p.unacked.(dst) seq;
    p.fc.Fault.n_acks <- p.fc.Fault.n_acks + 1
  end;
  match Hashtbl.find_opt p.inflight.(dst) seq with
  | Some size ->
    Hashtbl.remove p.inflight.(dst) seq;
    p.credit_used.(dst) <- p.credit_used.(dst) - size;
    true
  | None -> false

let ack_flush p ~dst ~seq emit = if ack p ~dst ~seq then flush p emit

let idle p =
  (not (Seminaive.has_pending p.engine))
  && Array.for_all (fun tbl -> Hashtbl.length tbl = 0) p.unacked
  && not (has_deferred p)

(* ------------------------------------------------------------------ *)
(* Receiving                                                           *)

let fresh p key =
  if Hashtbl.mem p.seen key then begin
    p.fc.Fault.n_dups_suppressed <- p.fc.Fault.n_dups_suppressed + 1;
    false
  end
  else begin
    Hashtbl.replace p.seen key ();
    true
  end

let receive p pred tuple =
  let i = route_index p pred in
  let name = if i >= 0 then p.routes.(i).r_in else Rewrite.in_pred pred in
  accept p (Seminaive.inject p.engine name tuple)

(* ------------------------------------------------------------------ *)
(* Session patches                                                     *)

let is_derived p pred = List.mem pred p.rewrite.Rewrite.derived

(* A derived tuple leaves the engine under its stored name and, when it
   is routed, its [@in] copy; a self-routed one has no [@in] relation
   and [retract_facts] skips the name. *)
let retract p removed =
  let keys =
    List.concat_map
      (fun (pred, t) ->
        if is_derived p pred then
          [ (Rewrite.stored_pred p.rewrite pred, t); (Rewrite.in_pred pred, t) ]
        else [ (pred, t) ])
      removed
  in
  ignore (Seminaive.retract_facts p.engine keys);
  let derived, base =
    List.partition (fun (pred, _) -> is_derived p pred) removed
  in
  List.iter
    (fun key -> Array.iter (fun tbl -> Fact.Tbl.remove tbl key) p.history)
    derived;
  ignore (Database.remove_facts p.fragment base)

let insert p pred t =
  ignore (Database.add_fact p.fragment pred t);
  ignore (Seminaive.inject p.engine pred t)
