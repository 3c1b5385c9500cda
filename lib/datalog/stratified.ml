module Tset = Hashtbl.Make (Tuple)

module Lkey = struct
  type t = string * Tuple.t

  let equal (p1, t1) (p2, t2) = String.equal p1 p2 && Tuple.equal t1 t2
  let hash (p, t) = (Hashtbl.hash p * 0x01000193) lxor Tuple.hash t
end

module Ltbl = Hashtbl.Make (Lkey)

let evaluate ?pushdown ?reorder program edb =
  (match Program.check program with
   | Ok () -> ()
   | Error msg -> invalid_arg ("Stratified.evaluate: " ^ msg));
  let components = Analysis.sccs program in
  let db = Database.copy edb in
  ignore (Database.merge_into ~dst:db ~src:(Program.facts_db program));
  let totals =
    ref
      {
        Seminaive.iterations = 0;
        firings = 0;
        new_tuples = 0;
        duplicate_firings = 0;
      }
  in
  List.iter
    (fun component ->
      let rules =
        List.filter
          (fun (r : Rule.t) -> List.mem r.head.Atom.pred component)
          (Program.rules program)
      in
      if rules <> [] then begin
        (* Lower components' results are already in [db] and look
           extensional to this stratum. *)
        let engine =
          Seminaive.create ?pushdown ?reorder (Program.make rules) ~edb:db
        in
        Seminaive.run_to_fixpoint engine;
        let produced = Seminaive.store engine in
        List.iter
          (fun pred ->
            match Database.find produced pred with
            | Some rel ->
              let target =
                Database.declare db pred (Relation.arity rel)
              in
              ignore (Relation.add_all target rel)
            | None -> ())
          component;
        let s = Seminaive.stats engine in
        totals :=
          {
            Seminaive.iterations =
              !totals.Seminaive.iterations + s.Seminaive.iterations;
            firings = !totals.Seminaive.firings + s.Seminaive.firings;
            new_tuples = !totals.Seminaive.new_tuples + s.Seminaive.new_tuples;
            duplicate_firings =
              !totals.Seminaive.duplicate_firings
              + s.Seminaive.duplicate_firings;
          }
      end)
    components;
  (db, !totals)

(* ================================================================== *)
(* Live incremental maintenance                                       *)

module Live = struct
  (* One rule of a stratum, compiled for every maintenance variant:
     [rp_plans.(j)] scans body atom [j] first (a bodiless rule has the
     single plan [rp_plans.(0)]), so each variant runs with its changed
     window as the outer loop. [rp_rederive] is [h :- h, body], the
     head copied in as body atom 0 and scanned first: reading one
     overdeleted tuple there asks whether the rule still derives it. *)
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
    lv_pfacts : unit Ltbl.t;
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

  let compile_rule ?pushdown ?reorder (rule : Rule.t) =
    let n = List.length rule.body in
    {
      rp_head = rule.head.Atom.pred;
      rp_preds =
        Array.of_list (List.map (fun (a : Atom.t) -> a.pred) rule.body);
      rp_plans =
        (if n = 0 then [| Joiner.compile ?pushdown ?reorder rule |]
         else
           Array.init n (fun first ->
               Joiner.compile ?pushdown ?reorder ~first rule));
      rp_rederive =
        Joiner.compile ?pushdown ?reorder ~first:0
          { rule with body = rule.head :: rule.body };
    }

  let build_strata ?pushdown ?reorder program =
    List.filter_map
      (fun component ->
        let rules =
          List.filter
            (fun (r : Rule.t) -> List.mem r.head.Atom.pred component)
            (Program.rules program)
        in
        if rules = [] then None
        else
          let recursive =
            match component with
            | [ _ ] ->
              List.exists
                (fun (r : Rule.t) ->
                  List.exists
                    (fun (a : Atom.t) -> List.mem a.Atom.pred component)
                    r.body)
                rules
            | _ -> true
          in
          Some
            {
              st_preds = component;
              st_rules = List.map (compile_rule ?pushdown ?reorder) rules;
              st_recursive = recursive;
            })
      (Analysis.sccs program)

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

  (* The position bound of [pred]'s relation: the limit of every window
     and watermark below (tombstoned positions count, so a watermark
     taken before an append still marks where the append began). *)
  let bound live pred =
    match rel_opt live pred with Some rel -> Relation.bound rel | None -> 0

  (* Every source below names its windows explicitly, so the join never
     looks a predicate up. *)
  let no_windows = { Joiner.window_of = (fun _ -> None) }

  (* [rel]'s insertion positions [lo, hi) as a join source: no span at
     all when the window is empty. *)
  let span ?skip rel ~lo ~hi =
    if hi > lo then
      [ { Joiner.sp_rel = rel; sp_lo = lo; sp_hi = hi; sp_skip = skip } ]
    else []

  let whole ?skip = function
    | Some rel -> span ?skip rel ~lo:0 ~hi:(Relation.bound rel)
    | None -> []

  let model live pred = whole (rel_opt live pred)

  let window live pred ~lo ~hi =
    match rel_opt live pred with Some rel -> span rel ~lo ~hi | None -> []

  (* The one maintenance join. For each body position [j] whose
     [changed] window is non-empty, atom [j] reads that window, the
     atoms before it read [before] and the atoms after it [after], and
     the plan scanning atom [j] first enumerates the firings. With the
     new state on one side of [j] and the old on the other, the
     variants telescope: no firing is counted under two positions.
     DRed reads the old state on both sides and may count a firing
     twice, which its set semantics absorbs. *)
  let fire_variants rp ~changed ~before ~after ~emit =
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
        Joiner.run rp.rp_plans.(j) ~sources no_windows ~emit
    done

  (* Count every current firing of the counting strata once, plus a +1
     baseline per externally supported tuple: the telescoped
     maintenance identities keep these exact from here on. *)
  let init_counts live =
    List.iter
      (fun st ->
        if not st.st_recursive then begin
          let counts = counts_of live (List.hd st.st_preds) in
          List.iter
            (fun rp ->
              Joiner.run rp.rp_plans.(0)
                ~sources:
                  (Array.map (fun p -> Joiner.Spans (model live p)) rp.rp_preds)
                no_windows
                ~emit:(fun h -> ignore (bump counts h 1)))
            st.st_rules
        end)
      live.lv_strata;
    let counting =
      List.concat_map
        (fun st -> if st.st_recursive then [] else st.st_preds)
        live.lv_strata
    in
    Ltbl.iter
      (fun (pred, tuple) () ->
        if List.mem pred counting then ignore (bump (counts_of live pred) tuple 1))
      live.lv_pfacts

  let create ?pushdown ?reorder program ~edb =
    (match Program.check program with
     | Ok () -> ()
     | Error msg -> invalid_arg ("Stratified.Live.create: " ^ msg));
    let db, _ = evaluate ?pushdown ?reorder program edb in
    let derived = Program.derived_predicates program in
    let live =
      {
        lv_program = program;
        lv_db = db;
        lv_strata = build_strata ?pushdown ?reorder program;
        lv_derived = derived;
        lv_counts = Hashtbl.create 8;
        lv_pfacts = Ltbl.create 16;
        lv_batches = 0;
        lv_totals = Delta.empty_summary;
      }
    in
    (* Externally supported tuples of derived predicates — program facts
       and edb seeds — are self-justifying: counting gives them a +1
       baseline, DRed rederives them unconditionally. *)
    List.iter
      (fun (pred, tuple) ->
        if List.mem pred derived then Ltbl.replace live.lv_pfacts (pred, tuple) ())
      program.Program.facts;
    List.iter
      (fun pred ->
        if List.mem pred derived then
          match Database.find edb pred with
          | None -> ()
          | Some rel ->
            Relation.iter
              (fun tuple -> Ltbl.replace live.lv_pfacts (pred, tuple) ())
              rel)
      (Database.predicates edb);
    init_counts live;
    live

  (* ---------------------------------------------------------------- *)
  (* Deletion phase                                                   *)

  (* [rem] holds, per predicate, the tuples this batch has removed from
     the model so far: the main store plus [rem] is the pre-deletion
     state. [retire] removes model tuples and moves them there. *)
  let removed rem pred = whole (Hashtbl.find_opt rem pred)

  (* Counting stratum: enumerate exactly the lost firings — position
     [j] reads the removed tuples, earlier atoms the post-deletion
     state, later atoms the pre-deletion state (main ∪ removed) — and
     decrement; a head whose count reaches zero dies. *)
  let delete_counting live st ~rem ~retire ~firings =
    let head_pred = List.hd st.st_preds in
    let counts = counts_of live head_pred in
    let dead = ref [] in
    List.iter
      (fun rp ->
        fire_variants rp ~changed:(removed rem) ~before:(model live)
          ~after:(fun p -> model live p @ removed rem p)
          ~emit:(fun h ->
            incr firings;
            if bump counts h (-1) = 0 then dead := (head_pred, h) :: !dead))
      st.st_rules;
    retire !dead

  (* An overdeleted relation of a DRed stratum: [od_rel] grows by
     propagation rounds, [od_lo, od_hi) is the window the current round
     propagates, and [od_saved] the tuples rederivation has saved. *)
  type overdeleted = {
    od_rel : Relation.t;
    mutable od_lo : int;
    mutable od_hi : int;
    od_saved : unit Tset.t;
  }

  (* Recursive stratum: DRed. Overdelete every tuple with a firing
     over the old state that touches a removed or overdeleted tuple;
     rederive the overdeleted tuples still derivable from survivors;
     the difference is the net deletion. *)
  let delete_dred live st ~rem ~retire ~firings ~overdeleted ~rederived =
    let in_stratum p = List.mem p st.st_preds in
    let od : (string, overdeleted) Hashtbl.t = Hashtbl.create 4 in
    (* Old state: for lower predicates main ∪ removed (they are already
       patched); for stratum predicates main (untouched until the net
       deletion is installed below). *)
    let old_state p =
      if in_stratum p then model live p else model live p @ removed rem p
    in
    let overdelete rp h =
      incr firings;
      match rel_opt live rp.rp_head with
      | Some main when Relation.mem main h ->
        let o =
          match Hashtbl.find_opt od rp.rp_head with
          | Some o -> o
          | None ->
            let o =
              {
                od_rel = Relation.create ~arity:(Tuple.arity h) ();
                od_lo = 0;
                od_hi = 0;
                od_saved = Tset.create 16;
              }
            in
            Hashtbl.add od rp.rp_head o;
            o
        in
        ignore (Relation.add o.od_rel h)
      | _ -> ()
    in
    (* Seed: firings lost to lower-stratum removals. *)
    List.iter
      (fun rp ->
        fire_variants rp
          ~changed:(fun p -> if in_stratum p then [] else removed rem p)
          ~before:old_state ~after:old_state ~emit:(overdelete rp))
      st.st_rules;
    (* Propagate: an overdeleted stratum tuple loses the firings it
       supported, each round from the tuples the last one overdeleted.
       Set semantics — overcounting is harmless here. *)
    let pending () =
      Hashtbl.fold
        (fun _ o more ->
          o.od_hi <- Relation.bound o.od_rel;
          more || o.od_hi > o.od_lo)
        od false
    in
    let round p =
      match Hashtbl.find_opt od p with
      | Some o -> span o.od_rel ~lo:o.od_lo ~hi:o.od_hi
      | None -> []
    in
    while pending () do
      List.iter
        (fun rp ->
          fire_variants rp ~changed:round ~before:old_state ~after:old_state
            ~emit:(overdelete rp))
        st.st_rules;
      Hashtbl.iter (fun _ o -> o.od_lo <- o.od_hi) od
    done;
    Hashtbl.iter
      (fun _ o -> overdeleted := !overdeleted + Relation.cardinal o.od_rel)
      od;
    (* Rederive: an overdeleted tuple survives if some rule derives it
       from survivors — stratum atoms read main minus the still-dead
       overdeletions, lower atoms the new state. Iterate to fixpoint:
       each save can justify more. *)
    let survivors p =
      match Hashtbl.find_opt od p with
      | Some o ->
        let dead t = Relation.mem o.od_rel t && not (Tset.mem o.od_saved t) in
        whole ~skip:dead (rel_opt live p)
      | None -> model live p
    in
    (* Stop at the first firing: one is enough to save the tuple. *)
    let rederivable pred o k =
      let exception Derived in
      let sources rp =
        Array.init
          (Array.length rp.rp_preds + 1)
          (fun i ->
            Joiner.Spans
              (if i = 0 then span o.od_rel ~lo:k ~hi:(k + 1)
               else survivors rp.rp_preds.(i - 1)))
      in
      List.exists
        (fun rp ->
          String.equal rp.rp_head pred
          &&
          match
            Joiner.run rp.rp_rederive ~sources:(sources rp) no_windows
              ~emit:(fun _ -> raise Derived)
          with
          | () -> false
          | exception Derived ->
            incr firings;
            true)
        st.st_rules
    in
    let changed = ref true in
    while !changed do
      changed := false;
      Hashtbl.iter
        (fun pred o ->
          let k = ref 0 in
          Relation.iter
            (fun t ->
              if
                (not (Tset.mem o.od_saved t))
                && (Ltbl.mem live.lv_pfacts (pred, t) || rederivable pred o !k)
              then begin
                Tset.replace o.od_saved t ();
                changed := true
              end;
              incr k)
            o.od_rel)
        od
    done;
    Hashtbl.iter
      (fun _ o -> rederived := !rederived + Tset.length o.od_saved)
      od;
    (* Install the net deletion. *)
    retire
      (Hashtbl.fold
         (fun pred o acc ->
           Relation.fold
             (fun t acc ->
               if Tset.mem o.od_saved t then acc else (pred, t) :: acc)
             o.od_rel acc)
         od [])

  (* ---------------------------------------------------------------- *)
  (* Insertion phase                                                  *)

  (* [add_lo] watermarks every relation before the batch's first
     append: the added region of predicate [p] is [add_lo(p), bound). *)
  let lo_of live ~add_lo p =
    match Hashtbl.find_opt add_lo p with Some v -> v | None -> bound live p

  (* Counting stratum: the gained firings — position [j] reads the
     added window, earlier atoms the full new state, later atoms the
     pre-addition prefix — increment; a 0→1 head is born. *)
  let insert_counting live st ~add_lo ~note_added ~firings =
    let head_pred = List.hd st.st_preds in
    let counts = counts_of live head_pred in
    (* Head relations exist: the initial evaluation declared every
       derived predicate. *)
    let head_rel = Database.get live.lv_db head_pred in
    let lo_of = lo_of live ~add_lo in
    List.iter
      (fun rp ->
        fire_variants rp
          ~changed:(fun p -> window live p ~lo:(lo_of p) ~hi:(bound live p))
          ~before:(model live)
          ~after:(fun p -> window live p ~lo:0 ~hi:(lo_of p))
          ~emit:(fun h ->
            incr firings;
            if bump counts h 1 = 1 && Relation.add head_rel h then
              note_added (head_pred, h)))
      st.st_rules

  (* Recursive stratum: plain semi-naive resumed from the added
     windows, driven over the live store with local watermarks (the
     in-place analogue of [Seminaive.resume]): a round's delta is
     [lo, cur), earlier atoms read [0, lo), later atoms [0, cur). *)
  let insert_seminaive live st ~add_lo ~note_added ~firings =
    let scope =
      List.sort_uniq String.compare
        (List.concat_map
           (fun rp -> rp.rp_head :: Array.to_list rp.rp_preds)
           st.st_rules)
    in
    let lo : (string, int) Hashtbl.t = Hashtbl.create 8 in
    let cur : (string, int) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun p ->
        Hashtbl.replace lo p (lo_of live ~add_lo p);
        Hashtbl.replace cur p (bound live p))
      scope;
    let delta p =
      window live p ~lo:(Hashtbl.find lo p) ~hi:(Hashtbl.find cur p)
    in
    while List.exists (fun p -> delta p <> []) scope do
      List.iter
        (fun rp ->
          let head_rel = Database.get live.lv_db rp.rp_head in
          fire_variants rp ~changed:delta
            ~before:(fun p -> window live p ~lo:0 ~hi:(Hashtbl.find lo p))
            ~after:(fun p -> window live p ~lo:0 ~hi:(Hashtbl.find cur p))
            ~emit:(fun h ->
              incr firings;
              if Relation.add head_rel h then note_added (rp.rp_head, h)))
        st.st_rules;
      List.iter
        (fun p ->
          Hashtbl.replace lo p (Hashtbl.find cur p);
          Hashtbl.replace cur p (bound live p))
        scope
    done

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
      let removed_now = Ltbl.create 32 in
      let added_now = Ltbl.create 32 in
      let note_added key =
        if Ltbl.mem removed_now key then Ltbl.remove removed_now key
        else Ltbl.replace added_now key ()
      in
      let firings = ref 0 in
      let overdeleted = ref 0 in
      let rederived = ref 0 in
      (* -------- deletions, bottom-up -------- *)
      if rems <> [] then begin
        let rem : (string, Relation.t) Hashtbl.t = Hashtbl.create 8 in
        let retire pairs =
          ignore (Database.remove_facts live.lv_db pairs);
          List.iter
            (fun ((pred, t) as key) ->
              let r =
                match Hashtbl.find_opt rem pred with
                | Some r -> r
                | None ->
                  let r = Relation.create ~arity:(Tuple.arity t) () in
                  Hashtbl.add rem pred r;
                  r
              in
              ignore (Relation.add r t);
              Ltbl.replace removed_now key ())
            pairs
        in
        retire rems;
        List.iter
          (fun st ->
            if st.st_recursive then
              delete_dred live st ~rem ~retire ~firings ~overdeleted
                ~rederived
            else delete_counting live st ~rem ~retire ~firings)
          live.lv_strata
      end;
      (* -------- insertions, bottom-up -------- *)
      if adds <> [] then begin
        let add_lo : (string, int) Hashtbl.t = Hashtbl.create 16 in
        List.iter
          (fun pred -> Hashtbl.replace add_lo pred (bound live pred))
          (Database.predicates live.lv_db);
        List.iter
          (fun (pred, tuple) ->
            if not (Hashtbl.mem add_lo pred) then Hashtbl.replace add_lo pred 0;
            if Database.add_fact live.lv_db pred tuple then
              note_added (pred, tuple))
          adds;
        List.iter
          (fun st ->
            if st.st_recursive then
              insert_seminaive live st ~add_lo ~note_added ~firings
            else insert_counting live st ~add_lo ~note_added ~firings)
          live.lv_strata
      end;
      let collect tbl =
        List.sort
          (fun (p1, t1) (p2, t2) ->
            match String.compare p1 p2 with
            | 0 -> Tuple.compare t1 t2
            | c -> c)
          (Ltbl.fold (fun key () acc -> key :: acc) tbl [])
      in
      let added = collect added_now in
      let removed = collect removed_now in
      let summary =
        {
          Delta.s_inserted = List.length added;
          s_deleted = List.length removed;
          s_overdeleted = !overdeleted;
          s_rederived = !rederived;
          s_firings = !firings;
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
