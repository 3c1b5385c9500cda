type stats = {
  iterations : int;
  firings : int;
  new_tuples : int;
  duplicate_firings : int;
}

let pp_stats ppf s =
  Format.fprintf ppf
    "@[iterations=%d firings=%d new_tuples=%d duplicates=%d@]" s.iterations
    s.firings s.new_tuples s.duplicate_firings

(* One append-only relation per predicate plus two watermarks replaces
   the old full/delta/pending database triple: Old is the prefix
   [0, m_old), the delta [m_old, m_cur), and everything past m_cur is
   pending — queued for the next iteration. Advancing an iteration is
   two integer assignments per predicate; the per-round delta
   databases, index rebuilds and full-store merges of the previous
   design are gone (see DESIGN.md §11). *)
type mark = {
  m_rel : Relation.t;
  mutable m_old : int;
  mutable m_cur : int;
}

type t = {
  program : Program.t;
  plans : Joiner.plan list;
  rule_firings : int array;
  (* Per-engine interning arena (see Arena): every tuple entering the
     engine — derived heads and injected deliveries alike — is mapped
     to one canonical physical value, so the seen-probes and dedup
     paths downstream resolve equality by pointer. Per-engine, not
     global: the domain runtime runs engines concurrently. [None]
     disables interning (the property suite checks both modes agree). *)
  arena : Arena.t option;
  (* Slab-backed storage rides the same switch as the arena: the flat
     columns only pay off when tuples are interned (one canonical
     physical value per tuple), and [~intern:false] is the documented
     way to A/B the whole fast path against the boxed reference
     implementation (see DESIGN.md §16). *)
  slab : bool;
  full : Database.t;  (* the single store; windows select the views *)
  marks : (string, mark) Hashtbl.t;
  mutable bootstrapped : bool;
  mutable iterations : int;
  mutable firings : int;
  mutable new_tuples : int;
  mutable duplicate_firings : int;
}

let canonical engine tuple =
  match engine.arena with
  | Some a -> Arena.intern a tuple
  | None -> tuple

let arity_of program pred =
  match List.assoc_opt pred (Program.arities program) with
  | Some a -> Some a
  | None -> None

(* The predicate's mark, creating the relation and mark on first use.
   A fresh mark treats everything already in the relation as processed
   state: that is what {!create} wants for the EDB, and a predicate
   first seen through {!inject} is empty anyway. *)
let mark_of engine pred ~arity =
  match Hashtbl.find_opt engine.marks pred with
  | Some m -> m
  | None ->
    let rel =
      match Database.find engine.full pred with
      | Some r -> r
      | None -> Database.declare ~slab:engine.slab engine.full pred arity
    in
    let n = Relation.cardinal rel in
    let m = { m_rel = rel; m_old = n; m_cur = n } in
    Hashtbl.add engine.marks pred m;
    m

let create ?(pushdown = true) ?(reorder = false) ?(intern = true) program
    ~edb =
  (match Program.check program with
   | Ok () -> ()
   | Error msg -> invalid_arg ("Seminaive.create: " ^ msg));
  let full = Database.copy ~slab:intern edb in
  let derived = Program.derived_predicates program in
  (* Declare derived relations so lookups during joins are uniform. *)
  List.iter
    (fun pred ->
      match arity_of program pred with
      | Some a -> ignore (Database.declare ~slab:intern full pred a)
      | None -> ())
    derived;
  let engine =
    {
      program;
      plans =
        List.map
          (fun r -> Joiner.compile ~pushdown ~reorder r)
          (Program.rules program);
      rule_firings = Array.make (List.length (Program.rules program)) 0;
      arena = (if intern then Some (Arena.create ()) else None);
      slab = intern;
      full;
      marks = Hashtbl.create 16;
      bootstrapped = false;
      iterations = 0;
      firings = 0;
      new_tuples = 0;
      duplicate_firings = 0;
    }
  in
  (* Base program facts are initial state (visible to the bootstrap
     scan); derived program facts are queued as if injected. Marking
     base predicates after their facts and derived predicates before
     theirs gets both for free. *)
  List.iter
    (fun (pred, tuple) ->
      if not (List.mem pred derived) then
        ignore (Database.add_fact engine.full pred tuple))
    program.facts;
  List.iter
    (fun pred -> ignore (mark_of engine pred ~arity:0))
    (Database.predicates engine.full);
  List.iter
    (fun (pred, tuple) ->
      if List.mem pred derived then begin
        let m = mark_of engine pred ~arity:(Tuple.arity tuple) in
        if not (Relation.mem m.m_rel tuple) then
          Relation.add_new m.m_rel (canonical engine tuple)
      end)
    program.facts;
  engine

let inject engine pred tuple =
  let m = mark_of engine pred ~arity:(Tuple.arity tuple) in
  if Relation.mem m.m_rel tuple then false
  else begin
    Relation.add_new m.m_rel (canonical engine tuple);
    true
  end

(* A resolved delivery point: the predicate's mark, looked up once
   instead of once per tuple. Deliveries skip the arena, so they must
   carry this engine's own canonical tuples. *)
type inlet = mark

let inlet engine pred ~arity = mark_of engine pred ~arity

let deliver (m : inlet) tuple =
  if Relation.mem m.m_rel tuple then false
  else begin
    Relation.add_new m.m_rel tuple;
    true
  end

let windows engine : Joiner.relations =
  {
    window_of =
      (fun pred ->
        match Hashtbl.find_opt engine.marks pred with
        | None -> None
        | Some m ->
          Some
            { Joiner.w_rel = m.m_rel; w_old = m.m_old; w_cur = m.m_cur });
  }

(* The per-run emit path: the head predicate's relation is resolved
   once per Joiner.run (it is invariant across the run's firings), so
   a firing costs one membership probe — the single store covers what
   used to be separate full-, pending- and delta-probes — and, when
   new, one unchecked insert. *)
let make_emit engine ~idx ~head_pred ~head_rel ~fresh =
 fun t ->
  engine.rule_firings.(idx) <- engine.rule_firings.(idx) + 1;
  engine.firings <- engine.firings + 1;
  if Relation.mem head_rel t then
    engine.duplicate_firings <- engine.duplicate_firings + 1
  else begin
    let t = canonical engine t in
    (* Absent — checked just above; appended past m_cur, hence part of
       the next delta, invisible to the sources of this run. *)
    Relation.add_new head_rel t;
    engine.new_tuples <- engine.new_tuples + 1;
    fresh := (head_pred, t) :: !fresh
  end

(* The slab-mode emit path: a [Joiner.run] firing first hits the
   [fast_dedup] filter, which answers duplicate-or-not from the head
   relation's raw columns ({!Relation.mem_raw}) without materializing
   a tuple — on the duplicate-heavy workloads (grid, hotspot) most
   firings end right there, allocation-free. All counters live in the
   filter so they advance exactly as in {!make_emit}; [known_new]
   carries the filter's verdict to the emit so a verified-absent tuple
   is inserted without a second membership probe, while inexact heads
   and demoted relations (filter couldn't decide) re-check with
   {!Relation.mem}. *)
let make_fast_pair engine ~idx ~head_pred ~head_rel ~fresh =
  let known_new = ref false in
  let fast_dedup ~exact ~hash raws =
    engine.rule_firings.(idx) <- engine.rule_firings.(idx) + 1;
    engine.firings <- engine.firings + 1;
    if exact && Relation.slabbed head_rel then
      if Relation.mem_raw head_rel ~hash raws then begin
        engine.duplicate_firings <- engine.duplicate_firings + 1;
        `Dup
      end
      else begin
        known_new := true;
        `New
      end
    else begin
      known_new := false;
      `New
    end
  in
  let emit t =
    if (not !known_new) && Relation.mem head_rel t then
      engine.duplicate_firings <- engine.duplicate_firings + 1
    else begin
      let t = canonical engine t in
      Relation.add_new head_rel t;
      engine.new_tuples <- engine.new_tuples + 1;
      fresh := (head_pred, t) :: !fresh
    end
  in
  (fast_dedup, emit)

let head_mark engine (rule : Rule.t) =
  mark_of engine rule.head.Atom.pred
    ~arity:(Array.length rule.head.Atom.args)

let bootstrap engine =
  if engine.bootstrapped then
    invalid_arg "Seminaive.bootstrap: already bootstrapped";
  engine.bootstrapped <- true;
  let rels = windows engine in
  let fresh = ref [] in
  List.iteri
    (fun idx plan ->
      let rule = Joiner.rule_of plan in
      let head = head_mark engine rule in
      let sources = Array.make (List.length rule.body) Joiner.Current in
      if engine.slab then begin
        let fast_dedup, emit =
          make_fast_pair engine ~idx ~head_pred:rule.head.Atom.pred
            ~head_rel:head.m_rel ~fresh
        in
        Joiner.run plan ~sources rels ~fast_dedup ~emit
      end
      else
        Joiner.run plan ~sources rels
          ~emit:
            (make_emit engine ~idx ~head_pred:rule.head.Atom.pred
               ~head_rel:head.m_rel ~fresh))
    engine.plans;
  List.rev !fresh

let step engine =
  if not engine.bootstrapped then
    invalid_arg "Seminaive.step: bootstrap first";
  (* Advance: yesterday's pending becomes today's delta. Two integer
     writes per predicate — the old design's delta-database swap and
     end-of-round merge collapse into this. *)
  let any_delta = ref false in
  Hashtbl.iter
    (fun _ m ->
      m.m_old <- m.m_cur;
      m.m_cur <- Relation.cardinal m.m_rel;
      if m.m_cur > m.m_old then any_delta := true)
    engine.marks;
  if not !any_delta then []
  else begin
    engine.iterations <- engine.iterations + 1;
    let rels = windows engine in
    let has_delta pred =
      match Hashtbl.find_opt engine.marks pred with
      | Some m -> m.m_cur > m.m_old
      | None -> false
    in
    let fresh = ref [] in
    List.iteri
      (fun idx plan ->
        let rule = Joiner.rule_of plan in
        let head = head_mark engine rule in
        let head_pred = rule.head.Atom.pred in
        let fast_dedup, emit =
          if engine.slab then
            let fd, emit =
              make_fast_pair engine ~idx ~head_pred ~head_rel:head.m_rel
                ~fresh
            in
            (Some fd, emit)
          else
            ( None,
              make_emit engine ~idx ~head_pred ~head_rel:head.m_rel ~fresh )
        in
        let body = Array.of_list rule.body in
        let n = Array.length body in
        for m = 0 to n - 1 do
          if has_delta body.(m).Atom.pred then begin
            let sources =
              Array.init n (fun i ->
                  if i < m then Joiner.Old
                  else if i = m then Joiner.Delta
                  else Joiner.Current)
            in
            Joiner.run plan ~sources rels ?fast_dedup ~emit
          end
        done)
      engine.plans;
    List.rev !fresh
  end

let has_pending engine =
  Hashtbl.fold
    (fun _ m acc -> acc || Relation.cardinal m.m_rel > m.m_cur)
    engine.marks false

(* Drive the pending delta to a local fixpoint. Work is proportional
   to the consequences of the queued tuples, not the store: an engine
   with nothing pending returns immediately, which is what makes
   live-session updates cheap — injecting a small batch and resuming
   re-fires only the rules the batch can reach. *)
let resume engine =
  if not engine.bootstrapped then
    invalid_arg "Seminaive.resume: bootstrap first";
  let fresh = ref [] in
  while has_pending engine do
    List.iter (fun nt -> fresh := nt :: !fresh) (step engine)
  done;
  List.rev !fresh

(* Not [resume]: the per-step fresh lists are discarded, so there is
   no point re-consing them into one accumulator. *)
let run_to_fixpoint engine =
  if not engine.bootstrapped then ignore (bootstrap engine);
  while has_pending engine do
    ignore (step engine)
  done

(* Remove concrete facts from the store. Only legal on a quiescent
   engine: the windows are positional, and a removal rebuilds the
   backing store, so every mark is re-pinned to the new cardinal
   (everything present becomes processed state with no firings owed).
   The caller owns the consequences — this is the primitive the
   incremental sessions use to install a net-deletion patch computed
   by [Stratified.Live], not a maintenance algorithm by itself. *)
let retract_facts engine pairs =
  if has_pending engine then
    invalid_arg "Seminaive.retract_facts: engine has pending work";
  let module Tset = Hashtbl.Make (Tuple) in
  let by_pred : (string, unit Tset.t) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (pred, tuple) ->
      let set =
        match Hashtbl.find_opt by_pred pred with
        | Some s -> s
        | None ->
          let s = Tset.create 16 in
          Hashtbl.add by_pred pred s;
          s
      in
      Tset.replace set tuple ())
    pairs;
  let removed = ref 0 in
  Hashtbl.iter
    (fun pred set ->
      match Database.find engine.full pred with
      | None -> ()
      | Some rel ->
        removed := !removed + Relation.remove_all rel (Tset.mem set))
    by_pred;
  if !removed > 0 then
    Hashtbl.iter
      (fun _ m ->
        let n = Relation.cardinal m.m_rel in
        m.m_old <- n;
        m.m_cur <- n)
      engine.marks;
  !removed

(* A checkpoint needs the store plus, per predicate, the frontier
   between processed state and the still-pending suffix: restoring
   with a merged store alone would lose the firings the pending tuples
   still owe. The delta watermark need not be saved — the first step
   after a restore advances it before any join reads it. *)
type snapshot = {
  snap_db : Database.t;
  snap_frontiers : (string * int) list;
  snap_bootstrapped : bool;
}

let snapshot engine =
  {
    snap_db = Database.copy engine.full;
    snap_frontiers =
      Hashtbl.fold
        (fun pred m acc -> (pred, m.m_cur) :: acc)
        engine.marks [];
    snap_bootstrapped = engine.bootstrapped;
  }

let restore ?(pushdown = true) ?(reorder = false) ?(intern = true) program
    snap =
  (match Program.check program with
   | Ok () -> ()
   | Error msg -> invalid_arg ("Seminaive.restore: " ^ msg));
  let full = Database.copy ~slab:intern snap.snap_db in
  let engine =
    {
      program;
      plans =
        List.map
          (fun r -> Joiner.compile ~pushdown ~reorder r)
          (Program.rules program);
      rule_firings = Array.make (List.length (Program.rules program)) 0;
      arena = (if intern then Some (Arena.create ()) else None);
      slab = intern;
      full;
      marks = Hashtbl.create 16;
      bootstrapped = snap.snap_bootstrapped;
      iterations = 0;
      firings = 0;
      new_tuples = 0;
      duplicate_firings = 0;
    }
  in
  List.iter
    (fun pred ->
      let m = mark_of engine pred ~arity:0 in
      match List.assoc_opt pred snap.snap_frontiers with
      | Some frontier ->
        m.m_old <- frontier;
        m.m_cur <- frontier
      | None -> ())
    (Database.predicates full);
  engine

let store engine = engine.full
let database engine = Database.copy engine.full

let stats engine =
  {
    iterations = engine.iterations;
    firings = engine.firings;
    new_tuples = engine.new_tuples;
    duplicate_firings = engine.duplicate_firings;
  }

let join_probes engine =
  List.fold_left (fun acc plan -> acc + Joiner.probes plan) 0 engine.plans

let evaluate ?pushdown ?reorder ?intern program edb =
  let engine = create ?pushdown ?reorder ?intern program ~edb in
  run_to_fixpoint engine;
  (database engine, stats engine)

let arena_stats engine =
  match engine.arena with
  | Some a -> Some (Arena.size a, Arena.hits a, Arena.misses a)
  | None -> None

let per_rule_firings engine =
  List.mapi
    (fun idx rule -> (rule, engine.rule_firings.(idx)))
    (Program.rules engine.program)
