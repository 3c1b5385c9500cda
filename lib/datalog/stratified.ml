(* The SCCs of [program] that have rules, bottom-up, each with its
   rules. *)
let components program =
  List.filter_map
    (fun component ->
      match
        List.filter
          (fun (r : Rule.t) -> List.mem r.head.Atom.pred component)
          (Program.rules program)
      with
      | [] -> None
      | rules -> Some (component, rules))
    (Analysis.sccs program)

let evaluate ?pushdown program edb =
  (match Program.check program with
   | Ok () -> ()
   | Error msg -> invalid_arg ("Stratified.evaluate: " ^ msg));
  let db = Database.copy edb in
  ignore (Database.merge_into ~dst:db ~src:(Program.facts_db program));
  let add (t : Seminaive.stats) (component, rules) =
    (* Lower components' results are already in [db] and look
       extensional to this stratum. *)
    let engine = Seminaive.create ?pushdown (Program.make rules) ~edb:db in
    Seminaive.run_to_fixpoint engine;
    let produced = Seminaive.store engine in
    List.iter
      (fun pred ->
        match Database.find produced pred with
        | Some rel ->
          let target = Database.declare db pred (Relation.arity rel) in
          ignore (Relation.add_all target rel)
        | None -> ())
      component;
    let s = Seminaive.stats engine in
    {
      Seminaive.iterations = t.iterations + s.iterations;
      firings = t.firings + s.firings;
      new_tuples = t.new_tuples + s.new_tuples;
      duplicate_firings = t.duplicate_firings + s.duplicate_firings;
    }
  in
  let zero =
    { Seminaive.iterations = 0; firings = 0; new_tuples = 0;
      duplicate_firings = 0 }
  in
  (db, List.fold_left add zero (components program))

(* ================================================================== *)
(* Live incremental maintenance                                       *)


module Live = struct
  module Tset = Hashtbl.Make (Tuple)

  (* One rule of a stratum, compiled for every maintenance variant:
     [rp_plans.(j)] scans body atom [j] first (a bodiless rule has the
     single plan [rp_plans.(0)]), so each variant runs with its changed
     window as the outer loop. [rp_rederive] is [h :- h, body], the
     head copied in as body atom 0 and scanned first: reading the
     overdeleted tuples there asks which of them the rule still
     derives. *)
  type rule_plan = {
    rp_head : string;
    rp_preds : string array;  (* body predicates, by position *)
    rp_plans : Joiner.plan array;
    rp_rederive : Joiner.plan;
  }

  type stratum = {
    st_preds : string list;  (* one SCC, sorted *)
    st_rules : rule_plan list;
    st_recursive : bool;  (* DRed; otherwise counting *)
  }

  type t = {
    lv_program : Program.t;
    lv_db : Database.t;  (* the live model: base + every derived tuple *)
    lv_strata : stratum list;  (* bottom-up *)
    lv_derived : string list;
    (* Non-recursive strata: exact derivation counts per head tuple.
       A tuple lives iff its count is positive; deletion decrements by
       the telescoped lost-firing enumeration, insertion increments. *)
    lv_counts : (string, int Tset.t) Hashtbl.t;
    (* Derived program facts: permanent external support. Counting
       strata bake them in as a +1 baseline; DRed rederivation treats
       them as self-justifying. *)
    lv_pfacts : unit Fact.Tbl.t;
    mutable lv_batches : int;
    mutable lv_totals : Delta.summary;
  }

  type change = {
    c_summary : Delta.summary;
    c_added : (string * Tuple.t) list;  (* net, base + derived, sorted *)
    c_removed : (string * Tuple.t) list;
  }

  let no_change =
    { c_summary = Delta.empty_summary; c_added = []; c_removed = [] }

  let compile_rule ?pushdown (rule : Rule.t) =
    let n = List.length rule.body in
    {
      rp_head = rule.head.Atom.pred;
      rp_preds =
        Array.of_list (List.map (fun (a : Atom.t) -> a.pred) rule.body);
      rp_plans =
        (if n = 0 then [| Joiner.compile ?pushdown rule |]
         else Array.init n (fun first -> Joiner.compile ?pushdown ~first rule));
      rp_rederive =
        Joiner.compile ?pushdown ~first:0
          { rule with body = rule.head :: rule.body };
    }

  let build_strata ?pushdown program =
    List.map
      (fun (component, rules) ->
        (* A component of two or more predicates always has a rule
           reading one of them. *)
        let recursive =
          List.exists
            (fun (r : Rule.t) ->
              List.exists
                (fun (a : Atom.t) -> List.mem a.Atom.pred component)
                r.body)
            rules
        in
        {
          st_preds = component;
          st_rules = List.map (compile_rule ?pushdown) rules;
          st_recursive = recursive;
        })
      (components program)

  let counts_of live pred =
    match Hashtbl.find_opt live.lv_counts pred with
    | Some c -> c
    | None ->
      let c = Tset.create 64 in
      Hashtbl.add live.lv_counts pred c;
      c

  let bump counts tuple by =
    let c = (match Tset.find_opt counts tuple with Some c -> c | None -> 0) + by in
    if c <= 0 then Tset.remove counts tuple else Tset.replace counts tuple c;
    c

  let rel_opt live pred = Database.find live.lv_db pred

  (* Every source below names its windows explicitly, so the join never
     looks a predicate up. *)
  let no_windows = { Joiner.window_of = (fun _ -> None) }

  (* [rel]'s insertion positions [lo, hi) as a join source: no span at
     all when the window is empty. Windows are measured against
     {!Relation.bound}: tombstoned positions count, so a watermark
     taken before an append still marks where the append began. *)
  let span ?skip rel ~lo ~hi =
    if hi > lo then
      [ { Joiner.sp_rel = rel; sp_lo = lo; sp_hi = hi; sp_skip = skip } ]
    else []

  let whole ?skip = function
    | Some rel -> span ?skip rel ~lo:0 ~hi:(Relation.bound rel)
    | None -> []

  let model live pred = whole (rel_opt live pred)

  (* Where one rule's firings go in a pass. [sk_dedup], when present,
     sees each firing's raw head words first ({!Joiner.run}'s
     [fast_dedup]) and drops the firings that change nothing without
     building their tuples; [sk_emit] gets the rest. Raw words are
     injective, so a [`New] verdict is final. *)
  type sink = {
    sk_dedup : (hash:int -> int array -> [ `Dup | `New ]) option;
    sk_emit : Tuple.t -> unit;
  }

  (* The one maintenance join. For each body position [j] whose
     [changed] window is non-empty, atom [j] reads that window, the
     atoms before it read [before] and the atoms after it [after], and
     the plan scanning atom [j] first enumerates the firings. With the
     new state on one side of [j] and the old on the other, the
     variants telescope: no firing is counted under two positions.
     DRed reads one state on both sides and may count a firing twice,
     which its set semantics absorbs. *)
  let fire_variants rp ~changed ~before ~after ~sink =
    let n = Array.length rp.rp_preds in
    for j = 0 to n - 1 do
      match changed rp.rp_preds.(j) with
      | [] -> ()
      | window ->
        let sources =
          Array.init n (fun i ->
              let p = rp.rp_preds.(i) in
              Joiner.Spans
                (if i < j then before p else if i = j then window else after p))
        in
        Joiner.run rp.rp_plans.(j) ~sources ?fast_dedup:sink.sk_dedup
          no_windows ~emit:sink.sk_emit
    done

  (* A relation that grows as [saturate] runs: each round reads
     [g_lo, g_hi), its growth since the round before, as changed. *)
  type growing = { g_rel : Relation.t; mutable g_lo : int; mutable g_hi : int }

  let growing ?(lo = 0) rel = { g_rel = rel; g_lo = lo; g_hi = lo }

  (* The one maintenance loop: semi-naive rounds over the relations of
     [grow]. Each round fires every rule's variants with the growth
     since the last round as the changed atoms; [sink rp] is resolved
     once per rule and round, and what it appends to a relation of
     [grow] is the next round's change. The loop stops after a round
     that adds nothing. *)
  let saturate st grow ~before ~after ~sink =
    let changed p =
      match Hashtbl.find_opt grow p with
      | Some g -> span g.g_rel ~lo:g.g_lo ~hi:g.g_hi
      | None -> []
    in
    let grew () =
      Hashtbl.fold
        (fun _ g more ->
          g.g_hi <- Relation.bound g.g_rel;
          more || g.g_hi > g.g_lo)
        grow false
    in
    while grew () do
      List.iter
        (fun rp -> fire_variants rp ~changed ~before ~after ~sink:(sink rp))
        st.st_rules;
      Hashtbl.iter (fun _ g -> g.g_lo <- g.g_hi) grow
    done

  (* Count every current firing of the counting strata once, plus a +1
     baseline per externally supported tuple: the telescoped
     maintenance identities keep these exact from here on. *)
  let init_counts live =
    List.iter
      (fun st ->
        if not st.st_recursive then begin
          let head = List.hd st.st_preds in
          let counts = counts_of live head in
          List.iter
            (fun rp ->
              Joiner.run rp.rp_plans.(0)
                ~sources:
                  (Array.map (fun p -> Joiner.Spans (model live p)) rp.rp_preds)
                no_windows
                ~emit:(fun h -> ignore (bump counts h 1)))
            st.st_rules;
          Fact.Tbl.iter
            (fun (pred, t) () ->
              if String.equal pred head then ignore (bump counts t 1))
            live.lv_pfacts
        end)
      live.lv_strata

  let create ?pushdown program ~edb =
    (match Program.check program with
     | Ok () -> ()
     | Error msg -> invalid_arg ("Stratified.Live.create: " ^ msg));
    let db, _ = evaluate ?pushdown program edb in
    let derived = Program.derived_predicates program in
    let live =
      {
        lv_program = program;
        lv_db = db;
        lv_strata = build_strata ?pushdown program;
        lv_derived = derived;
        lv_counts = Hashtbl.create 8;
        lv_pfacts = Fact.Tbl.create 16;
        lv_batches = 0;
        lv_totals = Delta.empty_summary;
      }
    in
    (* Externally supported tuples of derived predicates — program facts
       and edb seeds — are self-justifying: counting gives them a +1
       baseline, DRed rederives them unconditionally. *)
    let support pred tuple =
      if List.mem pred derived then
        Fact.Tbl.replace live.lv_pfacts (pred, tuple) ()
    in
    List.iter (fun (pred, tuple) -> support pred tuple) program.Program.facts;
    List.iter
      (fun pred -> Relation.iter (support pred) (Database.get edb pred))
      (Database.predicates edb);
    init_counts live;
    live

  (* Per-batch accounting, shared by both phases. *)
  type tally = {
    mutable firings : int;
    mutable overdeleted : int;
    mutable rederived : int;
  }

  let fire tally = tally.firings <- tally.firings + 1

  (* A raw-word head filter: keep the firings whose head is in [a] and
     not yet in [b]. *)
  let within a b ~hash raws =
    if Relation.mem_raw a ~hash raws && not (Relation.mem_raw b ~hash raws)
    then `New
    else `Dup

  (* ---------------------------------------------------------------- *)
  (* Deletion phase                                                   *)

  (* Delete within one stratum. [rem] holds, per predicate, the tuples
     this batch has removed from the model so far, and it seeds the
     rounds: the main store plus [rem] is the pre-deletion state (this
     stratum's predicates have no [rem] entry yet), and [retire]
     removes model tuples and moves them there. *)
  let delete live st ~rem ~retire ~tally =
    let grow = Hashtbl.create 8 in
    List.iter
      (fun p -> Hashtbl.replace grow p (growing (Database.get rem p)))
      (Database.predicates rem);
    let old p = model live p @ whole (Database.find rem p) in
    if not st.st_recursive then begin
      (* Counting: one round enumerates exactly the lost firings —
         atoms before the changed one read the post-deletion state,
         atoms after it the pre-deletion state — and decrements; a
         head whose count reaches zero dies. *)
      let head = List.hd st.st_preds in
      let counts = counts_of live head in
      let dead = ref [] in
      let lose h =
        fire tally;
        if bump counts h (-1) = 0 then dead := (head, h) :: !dead
      in
      saturate st grow ~before:(model live) ~after:old ~sink:(fun _ ->
          { sk_dedup = None; sk_emit = lose });
      retire !dead
    end
    else begin
      (* DRed. Overdelete every tuple with a firing over the old state
         that touches a removed or overdeleted tuple: the overdeleted
         relations grow in the same rounds as [rem]'s seed. A program
         or edb fact is saved as soon as it is overdeleted. *)
      let od = Hashtbl.create 4 in
      List.iter
        (fun p ->
          let arity = Relation.arity (Database.get live.lv_db p) in
          let o = Relation.create ~arity () in
          Hashtbl.replace od p (o, Relation.create ~arity ());
          Hashtbl.replace grow p (growing o))
        st.st_preds;
      saturate st grow ~before:old ~after:old ~sink:(fun rp ->
          let main = Database.get live.lv_db rp.rp_head in
          let o, s = Hashtbl.find od rp.rp_head in
          let overdelete ~hash raws =
            fire tally;
            within main o ~hash raws
          in
          let mark h =
            Relation.add_new o h;
            if Fact.Tbl.mem live.lv_pfacts (rp.rp_head, h) then
              Relation.add_new s h
          in
          { sk_dedup = Some overdelete; sk_emit = mark });
      (* Rederive: an overdeleted tuple is also saved if some rule
         derives it from survivors — stratum atoms read main minus the
         overdeletions not (yet) saved, lower atoms the new state. One
         join per rule reads every unsaved overdeleted tuple at once;
         then, unless none is left, the saved tuples propagate as
         ordinary rounds. A firing counts when it saves a tuple. *)
      let survivors p =
        match Hashtbl.find_opt od p with
        | Some (o, s) when not (Relation.is_empty o) ->
          let dead t = (not (Relation.mem s t)) && Relation.mem o t in
          whole ~skip:dead (rel_opt live p)
        | _ -> model live p
      in
      let save rp =
        let o, s = Hashtbl.find od rp.rp_head in
        let keep h =
          Relation.add_new s h;
          fire tally
        in
        { sk_dedup = Some (within o s); sk_emit = keep }
      in
      List.iter
        (fun rp ->
          let o, s = Hashtbl.find od rp.rp_head in
          let { sk_dedup; sk_emit } = save rp in
          let sources =
            Array.init
              (Array.length rp.rp_preds + 1)
              (fun i ->
                Joiner.Spans
                  (if i = 0 then whole ~skip:(Relation.mem s) (Some o)
                   else survivors rp.rp_preds.(i - 1)))
          in
          Joiner.run rp.rp_rederive ~sources ?fast_dedup:sk_dedup no_windows
            ~emit:sk_emit)
        st.st_rules;
      let unsaved =
        Hashtbl.fold
          (fun _ (o, s) n -> n + Relation.cardinal o - Relation.cardinal s)
          od 0
      in
      if unsaved > 0 then begin
        let grow = Hashtbl.create 4 in
        Hashtbl.iter (fun p (_, s) -> Hashtbl.replace grow p (growing s)) od;
        saturate st grow ~before:survivors ~after:survivors ~sink:save
      end;
      retire
        (Hashtbl.fold
           (fun p (o, s) acc ->
             tally.overdeleted <- tally.overdeleted + Relation.cardinal o;
             tally.rederived <- tally.rederived + Relation.cardinal s;
             Relation.fold
               (fun t acc -> if Relation.mem s t then acc else (p, t) :: acc)
               o acc)
           od [])
    end

  (* ---------------------------------------------------------------- *)
  (* Insertion phase                                                  *)

  (* Insert within one stratum: semi-naive resumed from the added
     windows over the live store. [add_lo] watermarks every relation
     before the batch's first append, so the added region of [p] is
     [add_lo(p), bound); a round's change is [lo, cur), earlier atoms
     read [0, lo) and later atoms [0, cur). This orientation enumerates
     each gained firing exactly once, so a counting stratum bumps its
     counts here too, and a 0→1 head is born. *)
  let insert live st ~add_lo ~note_added ~tally =
    let grow = Hashtbl.create 8 in
    List.iter
      (fun rp ->
        List.iter
          (fun p ->
            match (rel_opt live p, Hashtbl.find_opt add_lo p) with
            | Some rel, Some lo -> Hashtbl.replace grow p (growing rel ~lo)
            | _ -> ())
          (rp.rp_head :: Array.to_list rp.rp_preds))
      st.st_rules;
    let upto hi p =
      match Hashtbl.find_opt grow p with
      | Some g -> span g.g_rel ~lo:0 ~hi:(hi g)
      | None -> []
    in
    let counts =
      if st.st_recursive then None
      else Some (counts_of live (List.hd st.st_preds))
    in
    saturate st grow
      ~before:(upto (fun g -> g.g_lo))
      ~after:(upto (fun g -> g.g_hi))
      ~sink:(fun rp ->
        (* Head relations exist: the initial evaluation declared every
           derived predicate. *)
        let head_rel = Database.get live.lv_db rp.rp_head in
        match counts with
        | Some c ->
          let gain h =
            fire tally;
            if bump c h 1 = 1 && Relation.add head_rel h then
              note_added (rp.rp_head, h)
          in
          { sk_dedup = None; sk_emit = gain }
        | None ->
          let known ~hash raws =
            fire tally;
            if Relation.mem_raw head_rel ~hash raws then `Dup else `New
          in
          let born h =
            Relation.add_new head_rel h;
            note_added (rp.rp_head, h)
          in
          { sk_dedup = Some known; sk_emit = born })

  (* ---------------------------------------------------------------- *)

  (* Reject a batch before anything mutates: an update of a derived
     predicate, or a tuple whose arity is not its predicate's (in the
     model, in the program, or earlier in the same batch). *)
  let check_batch live updates =
    let arities = Hashtbl.create 16 in
    List.iter
      (fun (p, a) -> Hashtbl.replace arities p a)
      (Program.arities live.lv_program);
    List.iter
      (fun (u : Delta.update) ->
        let pred = u.Delta.u_pred and n = Tuple.arity u.Delta.u_tuple in
        if List.mem pred live.lv_derived then
          invalid_arg
            ("Stratified.Live.apply: " ^ pred
           ^ " is derived; updates must target base predicates");
        let expected =
          match Database.arity live.lv_db pred with
          | Some a -> Some a
          | None -> Hashtbl.find_opt arities pred
        in
        match expected with
        | Some a when a <> n ->
          invalid_arg
            (Printf.sprintf "Stratified.Live.apply: %s has arity %d, not %d"
               pred a n)
        | Some _ -> ()
        | None -> Hashtbl.replace arities pred n)
      updates

  let apply live batch =
    check_batch live (Delta.Batch.to_list batch);
    live.lv_batches <- live.lv_batches + 1;
    let present pred tuple =
      match rel_opt live pred with
      | Some rel -> Relation.mem rel tuple
      | None -> false
    in
    let adds, rems = Delta.Batch.normalize batch ~present in
    if adds = [] && rems = [] then no_change
    else begin
      let removed_now = Fact.Tbl.create 32 in
      let added_now = Fact.Tbl.create 32 in
      let note_added key =
        if Fact.Tbl.mem removed_now key then Fact.Tbl.remove removed_now key
        else Fact.Tbl.replace added_now key ()
      in
      let tally = { firings = 0; overdeleted = 0; rederived = 0 } in
      (* -------- deletions, bottom-up -------- *)
      if rems <> [] then begin
        let rem = Database.create () in
        let retire pairs =
          ignore (Database.remove_facts live.lv_db pairs);
          List.iter
            (fun ((pred, t) as key) ->
              ignore (Database.add_fact rem pred t);
              Fact.Tbl.replace removed_now key ())
            pairs
        in
        retire rems;
        List.iter (fun st -> delete live st ~rem ~retire ~tally) live.lv_strata
      end;
      (* -------- insertions, bottom-up -------- *)
      if adds <> [] then begin
        let add_lo : (string, int) Hashtbl.t = Hashtbl.create 16 in
        List.iter
          (fun pred ->
            Hashtbl.replace add_lo pred
              (Relation.bound (Database.get live.lv_db pred)))
          (Database.predicates live.lv_db);
        List.iter
          (fun (pred, tuple) ->
            if not (Hashtbl.mem add_lo pred) then Hashtbl.replace add_lo pred 0;
            if Database.add_fact live.lv_db pred tuple then
              note_added (pred, tuple))
          adds;
        List.iter
          (fun st -> insert live st ~add_lo ~note_added ~tally)
          live.lv_strata
      end;
      let collect tbl =
        List.sort
          (fun (p1, t1) (p2, t2) ->
            match String.compare p1 p2 with
            | 0 -> Tuple.compare t1 t2
            | c -> c)
          (Fact.Tbl.fold (fun key () acc -> key :: acc) tbl [])
      in
      let added = collect added_now in
      let removed = collect removed_now in
      let summary =
        {
          Delta.s_inserted = List.length added;
          s_deleted = List.length removed;
          s_overdeleted = tally.overdeleted;
          s_rederived = tally.rederived;
          s_firings = tally.firings;
        }
      in
      live.lv_totals <- Delta.add_summary live.lv_totals summary;
      { c_summary = summary; c_added = added; c_removed = removed }
    end

  let query live pred =
    match rel_opt live pred with
    | Some rel -> Relation.sorted_elements rel
    | None -> []

  let database live = Database.copy live.lv_db
  let batches live = live.lv_batches
  let totals live = live.lv_totals
end
