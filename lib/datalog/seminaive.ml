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

(* One rule, compiled for every variant it can run. [rp_plans.(f)]
   scans body atom [f] first (a bodiless rule has the single plan
   [rp_plans.(0)]); each {!Joiner.run} takes the plan whose first atom
   has the smallest window under the variant's sources. The source
   arrays, the head relation and the emit path are fixed here too, so
   a step allocates none of them. *)
type rule_plan = {
  rp_plans : Joiner.plan array;
  rp_preds : string array;  (* body predicates, by position *)
  rp_variants : Joiner.source array array;
      (* variant [m]: Old before [m], Delta at [m], Current after *)
  rp_current : Joiner.source array;  (* the bootstrap: all Current *)
  rp_fast_dedup : hash:int -> int array -> [ `Dup | `New ];
  rp_emit : Tuple.t -> unit;
}

type t = {
  program : Program.t;
  mutable rules : rule_plan array;  (* filled once the marks exist *)
  rule_firings : int array;
  full : Database.t;  (* the single store; windows select the views *)
  marks : (string, mark) Hashtbl.t;
  rels : Joiner.relations;  (* the marks as join windows *)
  mutable fresh : (string * Tuple.t) list;
      (* this bootstrap's or step's new tuples, newest first *)
  mutable bootstrapped : bool;
  mutable iterations : int;
  mutable firings : int;
  mutable new_tuples : int;
  mutable duplicate_firings : int;
}

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
      | None -> Database.declare engine.full pred arity
    in
    let n = Relation.cardinal rel in
    let m = { m_rel = rel; m_old = n; m_cur = n } in
    Hashtbl.add engine.marks pred m;
    m

(* The marks as join windows: one closure for the engine's lifetime,
   reading a predicate's watermarks when a run looks it up. *)
let windows marks : Joiner.relations =
  {
    window_of =
      (fun pred ->
        match Hashtbl.find_opt marks pred with
        | None -> None
        | Some m ->
          Some
            { Joiner.w_rel = m.m_rel; w_old = m.m_old; w_cur = m.m_cur });
  }

(* An engine over [full] with no marks and no compiled rules yet:
   {!create} and {!restore} set the marks up, then {!compile_rules}. *)
let blank program full ~bootstrapped =
  let marks = Hashtbl.create 16 in
  {
    program;
    rules = [||];
    rule_firings = Array.make (List.length (Program.rules program)) 0;
    full;
    marks;
    rels = windows marks;
    fresh = [];
    bootstrapped;
    iterations = 0;
    firings = 0;
    new_tuples = 0;
    duplicate_firings = 0;
  }

(* A resolved delivery point: the predicate's mark, looked up once
   instead of once per tuple. *)
type inlet = mark

let inlet engine pred ~arity = mark_of engine pred ~arity

let deliver (m : inlet) tuple =
  if Relation.mem m.m_rel tuple then false
  else begin
    Relation.add_new m.m_rel tuple;
    true
  end

let inject engine pred tuple =
  deliver (mark_of engine pred ~arity:(Tuple.arity tuple)) tuple

(* The emit path of one rule. The head predicate's relation is
   resolved once, when the rule is compiled (the relation is never
   replaced). A [Joiner.run] firing first hits the [fast_dedup] filter,
   which answers duplicate-or-not from the head relation's raw columns
   ({!Relation.mem_raw}) without materializing a tuple — on the
   duplicate-heavy workloads (grid, hotspot) most firings end right
   there, allocation-free. Raw words are injective, so a [`New]
   verdict is final: the emit inserts without a second probe, past
   m_cur, hence into the next delta, invisible to this run's sources. *)
let make_emit engine ~idx ~head_pred ~head_rel =
  let fast_dedup ~hash raws =
    engine.rule_firings.(idx) <- engine.rule_firings.(idx) + 1;
    engine.firings <- engine.firings + 1;
    if Relation.mem_raw head_rel ~hash raws then begin
      engine.duplicate_firings <- engine.duplicate_firings + 1;
      `Dup
    end
    else `New
  in
  let emit t =
    Relation.add_new head_rel t;
    engine.new_tuples <- engine.new_tuples + 1;
    engine.fresh <- (head_pred, t) :: engine.fresh
  in
  (fast_dedup, emit)

(* Compile every rule once per body position, with the emit path and
   the source array of each variant. Called by {!create} and
   {!restore} once the marks exist, so the head relations resolve. *)
let compile_rules engine ~pushdown ~reorder =
  let compile idx (rule : Rule.t) =
    let body = Array.of_list rule.body in
    let n = Array.length body in
    let head_pred = rule.head.Atom.pred in
    let head_rel =
      (mark_of engine head_pred ~arity:(Array.length rule.head.Atom.args))
        .m_rel
    in
    let rp_fast_dedup, rp_emit = make_emit engine ~idx ~head_pred ~head_rel in
    {
      rp_plans =
        (if n = 0 then [| Joiner.compile ~pushdown ~reorder rule |]
         else
           Array.init n (fun first ->
               Joiner.compile ~pushdown ~reorder ~first rule));
      rp_preds = Array.map (fun (a : Atom.t) -> a.pred) body;
      rp_variants =
        Array.init n (fun m ->
            Array.init n (fun i ->
                if i < m then Joiner.Old
                else if i = m then Joiner.Delta
                else Joiner.Current));
      rp_current = Array.make n Joiner.Current;
      rp_fast_dedup;
      rp_emit;
    }
  in
  engine.rules <-
    Array.of_list (List.mapi compile (Program.rules engine.program))

let create ?(pushdown = true) ?(reorder = false) program ~edb =
  (match Program.check program with
   | Ok () -> ()
   | Error msg -> invalid_arg ("Seminaive.create: " ^ msg));
  let full = Database.copy edb in
  let derived = Program.derived_predicates program in
  (* Declare derived relations so lookups during joins are uniform. *)
  List.iter
    (fun pred ->
      match arity_of program pred with
      | Some a -> ignore (Database.declare full pred a)
      | None -> ())
    derived;
  let engine = blank program full ~bootstrapped:false in
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
      if List.mem pred derived then ignore (inject engine pred tuple))
    program.facts;
  compile_rules engine ~pushdown ~reorder;
  engine

(* The number of tuples a body atom's window holds under one source:
   the outer loop of a plan that scans that atom first. *)
let window_size engine pred (source : Joiner.source) =
  match Hashtbl.find_opt engine.marks pred with
  | None -> 0
  | Some m ->
    (match source with
     | Old -> m.m_old
     | Delta -> m.m_cur - m.m_old
     | Current -> m.m_cur)

(* Run one variant of a rule with the plan whose first atom has the
   smallest window under [sources], ties going to textual order. Every
   plan enumerates the same substitutions; the choice only decides
   which window is the outer loop — the delta, when it is the smaller
   side, instead of the whole base relation. *)
let run_variant engine rp sources =
  let best = ref 0 and best_size = ref max_int in
  for i = 0 to Array.length rp.rp_preds - 1 do
    let size = window_size engine rp.rp_preds.(i) sources.(i) in
    if size < !best_size then begin
      best := i;
      best_size := size
    end
  done;
  Joiner.run rp.rp_plans.(!best) ~sources engine.rels
    ~fast_dedup:rp.rp_fast_dedup ~emit:rp.rp_emit

let take_fresh engine =
  let fresh = List.rev engine.fresh in
  engine.fresh <- [];
  fresh

let bootstrap engine =
  if engine.bootstrapped then
    invalid_arg "Seminaive.bootstrap: already bootstrapped";
  engine.bootstrapped <- true;
  Array.iter (fun rp -> run_variant engine rp rp.rp_current) engine.rules;
  take_fresh engine

let has_delta engine pred =
  match Hashtbl.find_opt engine.marks pred with
  | Some m -> m.m_cur > m.m_old
  | None -> false

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
    for r = 0 to Array.length engine.rules - 1 do
      let rp = engine.rules.(r) in
      for m = 0 to Array.length rp.rp_preds - 1 do
        if has_delta engine rp.rp_preds.(m) then
          run_variant engine rp rp.rp_variants.(m)
      done
    done;
    take_fresh engine
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

let restore ?(pushdown = true) ?(reorder = false) program snap =
  (match Program.check program with
   | Ok () -> ()
   | Error msg -> invalid_arg ("Seminaive.restore: " ^ msg));
  let full = Database.copy snap.snap_db in
  let engine = blank program full ~bootstrapped:snap.snap_bootstrapped in
  List.iter
    (fun pred ->
      let m = mark_of engine pred ~arity:0 in
      match List.assoc_opt pred snap.snap_frontiers with
      | Some frontier ->
        m.m_old <- frontier;
        m.m_cur <- frontier
      | None -> ())
    (Database.predicates full);
  compile_rules engine ~pushdown ~reorder;
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
  Array.fold_left
    (fun acc rp ->
      Array.fold_left (fun acc plan -> acc + Joiner.probes plan) acc
        rp.rp_plans)
    0 engine.rules

let evaluate ?pushdown ?reorder program edb =
  let engine = create ?pushdown ?reorder program ~edb in
  run_to_fixpoint engine;
  (database engine, stats engine)

let per_rule_firings engine =
  List.mapi
    (fun idx rule -> (rule, engine.rule_firings.(idx)))
    (Program.rules engine.program)
