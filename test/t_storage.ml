(* The storage engine: Vec growth, cached tuple hashes and pinned
   constant hashes, index life cycle across compaction, and the
   columnar slab layer (wide integers, structural copies, the
   per-round allocation budget, and the columnar-scan probe path
   against the index path). *)

open Datalog
open Helpers

let to_alcotest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Vec                                                                 *)
(* ------------------------------------------------------------------ *)

let test_vec_growth () =
  let v = Vec.create ~capacity:2 ~dummy:(-1) () in
  for i = 0 to 99 do
    Vec.push v i
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check bool) "capacity grew" true (Vec.capacity v >= 100);
  Alcotest.(check (list int)) "insertion order" (List.init 100 Fun.id)
    (Vec.to_list v);
  Vec.compact v;
  Alcotest.(check int) "compacted capacity" 100 (Vec.capacity v);
  Alcotest.(check (list int)) "contents survive compaction"
    (List.init 100 Fun.id) (Vec.to_list v);
  Vec.clear v;
  Alcotest.(check int) "cleared" 0 (Vec.length v)

(* ------------------------------------------------------------------ *)
(* Cached hashes                                                       *)
(* ------------------------------------------------------------------ *)

let test_hash_stability () =
  let consts = [ Const.int 42; Const.sym "x"; Const.int (-7) ] in
  let a = Tuple.of_list consts in
  let b = Tuple.make (Array.of_list consts) in
  Alcotest.(check bool) "equal tuples" true (Tuple.equal a b);
  Alcotest.(check int) "equal cached hashes" (Tuple.hash a) (Tuple.hash b);
  Alcotest.(check int) "hash is idempotent" (Tuple.hash a) (Tuple.hash a);
  (* to_array returns a copy: mutating it must not disturb the tuple
     or its cached hash. *)
  let arr = Tuple.to_array a in
  arr.(0) <- Const.int 999;
  Alcotest.(check bool) "tuple unchanged" true (Tuple.equal a b);
  Alcotest.(check int) "hash unchanged" (Tuple.hash b) (Tuple.hash a)

(* Discriminating functions, routing, plan certificates and every
   counter downstream read [Const.hash], so its values are pinned —
   wide integers included, whose raw words come from a side table but
   whose hash still reads the shifted payload. A symbol's hash depends
   on its interning order, so it is checked against the splitmix64
   finalizer of its shifted id, itself pinned by the integer cases. *)
let splitmix_of_word w =
  let z = w * 0x1E3779B97F4A7C15 in
  let z = (z lxor (z lsr 30)) * 0x3F58476D1CE4E5B9 in
  let z = (z lxor (z lsr 27)) * 0x14D049BB133111EB in
  (z lxor (z lsr 31)) land max_int

let test_const_hash_pinned () =
  List.iter
    (fun (name, i, h) ->
      Alcotest.(check int) name h (Const.hash (Const.int i));
      Alcotest.(check int) (name ^ " (reference)") h
        (splitmix_of_word (i lsl 1)))
    [
      ("42", 42, 1044567586874720411);
      ("-7", -7, 943333922369904511);
      ("2^61", 1 lsl 61, 1360429390938723525);
      ("max_int", max_int, 964973312370967167);
    ];
  Alcotest.(check int) "seeded 42" 3701023222495373022
    (Const.hash_seeded 7 (Const.int 42));
  Alcotest.(check int) "seeded 2^61" 1480822416706278603
    (Const.hash_seeded 7 (Const.int (1 lsl 61)));
  match Const.sym "x" with
  | Const.Sym s as c ->
    Alcotest.(check int) "symbol"
      (splitmix_of_word ((Symtab.to_int s lsl 1) lor 1))
      (Const.hash c)
  | Const.Int _ -> Alcotest.fail "Const.sym made an integer"

(* ------------------------------------------------------------------ *)
(* Index life cycle                                                    *)
(* ------------------------------------------------------------------ *)

let test_index_rebuild_after_compact () =
  let r = Relation.create ~arity:2 () in
  for i = 0 to 49 do
    ignore (Relation.add r (Tuple.of_ints [ i mod 5; i ]))
  done;
  let probe () =
    List.sort Tuple.compare
      (Relation.lookup r ~positions:[| 0 |] ~key:[| Const.int 3 |])
  in
  let before = probe () in
  Alcotest.(check int) "one index materialized" 1 (Relation.index_count r);
  Relation.compact r;
  Alcotest.(check int) "compaction drops indexes" 0 (Relation.index_count r);
  Alcotest.(check (list tuple_t)) "rebuilt index answers identically"
    before (probe ());
  Alcotest.(check int) "index rematerialized" 1 (Relation.index_count r);
  (* And the rebuilt index keeps serving inserts made after the
     compaction. *)
  ignore (Relation.add r (Tuple.of_ints [ 3; 999 ]));
  Alcotest.(check int) "post-compaction insert is indexed"
    (List.length before + 1)
    (List.length (probe ()))

let test_windowed_matcher () =
  let r = Relation.create ~arity:2 () in
  List.iter
    (fun (a, b) -> ignore (Relation.add r (Tuple.of_ints [ a; b ])))
    [ (1, 10); (2, 20); (1, 30); (1, 40) ];
  let m = Relation.matcher r ~positions:[| 0 |] in
  let count ~lo ~hi =
    let n = ref 0 in
    m [| Const.int 1 |] ~lo ~hi (fun _ -> incr n);
    !n
  in
  Alcotest.(check int) "full window" 3 (count ~lo:0 ~hi:4);
  Alcotest.(check int) "prefix window" 1 (count ~lo:0 ~hi:2);
  Alcotest.(check int) "suffix window" 2 (count ~lo:2 ~hi:4);
  Alcotest.(check int) "empty window" 0 (count ~lo:2 ~hi:2)

(* ------------------------------------------------------------------ *)
(* Columnar slabs                                                      *)
(* ------------------------------------------------------------------ *)

(* Integers at and beyond the 62-bit edge: [to_raw] interns the wide
   ones, so none of them may share a raw word with another stored
   constant — [min_int] and 0 shift to the same payload, as do
   [max_int] and -1, and their hashes collide. The ten interesting
   tuples come first, so a probe over [0, 10) takes the columnar scan;
   filler rows push a whole-relation lookup through the index. *)
let test_wide_ints_distinct () =
  let wide = [ 1 lsl 61; -(1 lsl 61); max_int; min_int ] in
  let firsts = 0 :: -1 :: wide in
  let r = Relation.create ~arity:2 () in
  let pair a b = Tuple.of_ints [ a; b ] in
  List.iter (fun i -> ignore (Relation.add r (pair i 0))) firsts;
  List.iter (fun i -> ignore (Relation.add r (pair 0 i))) wide;
  Alcotest.(check int) "all distinct" 10 (Relation.cardinal r);
  for i = 1 to Relation.scan_cutoff do
    ignore (Relation.add r (pair i 1))
  done;
  List.iter
    (fun i ->
      Alcotest.(check bool) "re-adding is a duplicate" false
        (Relation.add r (pair i 0));
      Alcotest.(check bool) "mem" true (Relation.mem r (pair i 0)))
    firsts;
  Alcotest.(check bool) "absent wide tuple" false
    (Relation.mem r (pair max_int max_int));
  let scan positions key =
    let acc = ref [] in
    (Relation.matcher r ~positions) key ~lo:0 ~hi:10 (fun t ->
        acc := t :: !acc);
    List.rev !acc
  in
  List.iter
    (fun i ->
      let key = [| Const.int i |] in
      Alcotest.(check (list tuple_t))
        (Printf.sprintf "lookup %d" i)
        [ pair i 0 ]
        (Relation.lookup r ~positions:[| 0 |] ~key);
      Alcotest.(check (list tuple_t))
        (Printf.sprintf "columnar scan %d" i)
        [ pair i 0 ] (scan [| 0 |] key))
    (-1 :: wide);
  Alcotest.(check (list tuple_t)) "lookup by the second column"
    [ pair 0 min_int ]
    (Relation.lookup r ~positions:[| 1 |] ~key:[| Const.int min_int |]);
  Alcotest.(check (list tuple_t)) "columnar scan of both columns"
    [ pair 0 max_int ]
    (scan [| 0; 1 |] [| Const.int 0; Const.int max_int |])

let test_slab_copy () =
  let r = Relation.create ~arity:2 () in
  for i = 0 to 99 do
    ignore (Relation.add r (Tuple.of_ints [ i mod 7; i ]))
  done;
  let c = Relation.copy r in
  Alcotest.(check bool) "copy equals original" true (Relation.equal r c);
  ignore (Relation.add c (Tuple.of_ints [ 3; 1000 ]));
  Alcotest.(check int) "original unchanged" 100 (Relation.cardinal r);
  Alcotest.(check (list tuple_t)) "copy's probes see the insert"
    (List.sort Tuple.compare
       (Relation.lookup r ~positions:[| 0 |] ~key:[| Const.int 3 |]
       @ [ Tuple.of_ints [ 3; 1000 ] ]))
    (List.sort Tuple.compare
       (Relation.lookup c ~positions:[| 0 |] ~key:[| Const.int 3 |]))

(* The round's bookkeeping must not allocate: slab insert, dedup and
   columnar probes are all flat int-array traffic, so what remains per
   round is dominated by the derived tuples themselves. The budget is
   loose (PR10 measured ~11k words/round on this shape; the boxed
   layer sat far above it) but tight enough to catch a regression that
   reintroduces per-insert or per-probe boxing. *)
let test_chain_allocation_budget () =
  let edb = edb_of_edges (Workload.Graphgen.chain 150) in
  let engine = Seminaive.create ancestor ~edb in
  let before = Gc.minor_words () in
  Seminaive.run_to_fixpoint engine;
  let words = Gc.minor_words () -. before in
  let rounds = max 1 (Seminaive.stats engine).Seminaive.iterations in
  let per_round = words /. float_of_int rounds in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words/round under the 40k budget" per_round)
    true
    (per_round < 40_000.)

(* ------------------------------------------------------------------ *)
(* Columnar scan against the index                                     *)
(* ------------------------------------------------------------------ *)

(* A probe over a window at most [Relation.scan_cutoff] wide scans the
   key columns; a wider one goes through the index. Both must
   enumerate exactly the tuples of [iter_range] that match the key, in
   insertion order — windows and key positions are random, and the
   window widths straddle the cutoff. *)
let matcher_case_gen =
  QCheck.Gen.(
    let* arity = int_range 1 3 in
    let* n = int_range 0 (3 * Relation.scan_cutoff) in
    let* rows = list_size (return n) (list_size (return arity) (int_range 0 3)) in
    let* positions =
      map
        (fun mask ->
          Array.of_list
            (List.filter (fun i -> mask land (1 lsl i) <> 0)
               (List.init arity Fun.id)))
        (int_range 1 ((1 lsl arity) - 1))
    in
    let* key = list_size (return (Array.length positions)) (int_range 0 3) in
    let* lo = int_range 0 (n + 1) in
    let* width = int_range 0 (2 * Relation.scan_cutoff) in
    return (arity, rows, positions, key, lo, lo + width))

let matcher_case =
  QCheck.make
    ~print:(fun (arity, rows, positions, key, lo, hi) ->
      Printf.sprintf "arity %d, %d rows [%s], positions [%s], key [%s], [%d, %d)"
        arity (List.length rows)
        (String.concat "; "
           (List.map
              (fun r -> String.concat "," (List.map string_of_int r))
              rows))
        (String.concat "," (Array.to_list (Array.map string_of_int positions)))
        (String.concat "," (List.map string_of_int key))
        lo hi)
    matcher_case_gen

let prop_matcher_is_filtered_range =
  QCheck.Test.make ~count:400
    ~name:"matcher = key-filtered iter_range, both sides of scan_cutoff"
    matcher_case
    (fun (arity, rows, positions, key, lo, hi) ->
      let r = Relation.create ~arity () in
      List.iter (fun row -> ignore (Relation.add r (Tuple.of_ints row))) rows;
      let key = Array.of_list (List.map Const.int key) in
      let probed = ref [] and expected = ref [] in
      (Relation.matcher r ~positions) key ~lo ~hi (fun t ->
          probed := t :: !probed);
      Relation.iter_range r ~lo ~hi (fun t ->
          if Array.for_all2 Const.equal (Tuple.project_key t positions) key
          then expected := t :: !expected);
      List.equal Tuple.equal !probed !expected)

(* ------------------------------------------------------------------ *)
(* Tombstones                                                          *)
(* ------------------------------------------------------------------ *)

(* One relation under a random interleaving of adds, removals (mostly
   of present tuples, so re-adds of removed ones are common), and
   every kind of read, checked after each step against a model: the
   live set, each live tuple's position, and the position bound. Reads
   must see exactly the live tuples; a removal must leave survivors at
   their positions and the bound where it was; a re-added tuple must
   land at the bound. A final compaction must keep the contents and
   their order while renumbering positions densely. *)
let ints_of t =
  Array.to_list
    (Array.map
       (function Const.Int i -> i | Const.Sym _ -> assert false)
       (Tuple.to_array t))

type slab_op =
  | Add of int list
  | Remove of int list list
  | Mem of int list
  | Lookup of int array * int list
  | Probe of int array * int list * int * int  (* positions, key, lo, width *)
  | Iter

let slab_row = QCheck.Gen.(list_size (return 2) (int_range 0 4))

let slab_positions =
  QCheck.Gen.oneofl [ [| 0 |]; [| 1 |]; [| 0; 1 |] ]

let slab_op_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map (fun r -> Add r) slab_row);
        (2, map (fun rs -> Remove rs) (list_size (int_range 1 6) slab_row));
        (1, map (fun r -> Mem r) slab_row);
        ( 1,
          let* ps = slab_positions in
          let* key = list_size (return (Array.length ps)) (int_range 0 4) in
          return (Lookup (ps, key)) );
        ( 2,
          let* ps = slab_positions in
          let* key = list_size (return (Array.length ps)) (int_range 0 4) in
          let* lo = int_range 0 40 in
          let* width = int_range 0 (2 * Relation.scan_cutoff) in
          return (Probe (ps, key, lo, width)) );
        (1, return Iter);
      ])

let show_row r = "(" ^ String.concat "," (List.map string_of_int r) ^ ")"

let show_slab_op = function
  | Add r -> "add " ^ show_row r
  | Remove rs -> "remove " ^ String.concat " " (List.map show_row rs)
  | Mem r -> "mem " ^ show_row r
  | Lookup (ps, k) ->
    Printf.sprintf "lookup [%s] %s"
      (String.concat "," (Array.to_list (Array.map string_of_int ps)))
      (show_row k)
  | Probe (ps, k, lo, w) ->
    Printf.sprintf "probe [%s] %s [%d, %d)"
      (String.concat "," (Array.to_list (Array.map string_of_int ps)))
      (show_row k) lo (lo + w)
  | Iter -> "iter"

let slab_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map show_slab_op ops))
    QCheck.Gen.(list_size (int_range 1 80) slab_op_gen)

let prop_tombstones_match_model =
  QCheck.Test.make ~count:300
    ~name:"tombstoned slab = set model under add/remove/re-add/probe"
    slab_ops
    (fun ops ->
      let r = Relation.create ~arity:2 () in
      (* live row -> its position; the bound the relation must report *)
      let pos = Hashtbl.create 16 in
      let bound = ref 0 in
      let fail fmt = Printf.ksprintf (fun m -> QCheck.Test.fail_report m) fmt in
      let live_in_order () =
        Hashtbl.fold (fun row p acc -> (p, row) :: acc) pos []
        |> List.sort compare |> List.map snd
      in
      let rows ts = List.map ints_of ts in
      let matches ps key row =
        List.for_all2 (fun p k -> List.nth row p = k) (Array.to_list ps) key
      in
      let check_survivors () =
        Hashtbl.iter
          (fun row p ->
            let seen = ref [] in
            Relation.iter_range r ~lo:p ~hi:(p + 1) (fun t ->
                seen := ints_of t :: !seen);
            if !seen <> [ row ] then fail "%s left position %d" (show_row row) p)
          pos
      in
      let step op =
        (match op with
        | Add row ->
          let fresh = not (Hashtbl.mem pos row) in
          if Relation.add r (Tuple.of_ints row) <> fresh then
            fail "add %s: wrong freshness" (show_row row);
          if fresh then begin
            Hashtbl.replace pos row !bound;
            incr bound
          end
        | Remove victims ->
          let present =
            List.sort_uniq compare (List.filter (Hashtbl.mem pos) victims)
          in
          let n = Relation.remove_all r (List.map Tuple.of_ints victims) in
          if n <> List.length present then
            fail "remove: %d removed, %d expected" n (List.length present);
          List.iter (Hashtbl.remove pos) present;
          check_survivors ()
        | Mem row ->
          if Relation.mem r (Tuple.of_ints row) <> Hashtbl.mem pos row then
            fail "mem %s" (show_row row)
        | Lookup (ps, key) ->
          let got =
            Relation.lookup r ~positions:ps ~key:(Array.of_list (List.map Const.int key))
          in
          if List.sort compare (rows got)
             <> List.sort compare (List.filter (matches ps key) (live_in_order ()))
          then fail "lookup"
        | Probe (ps, key, lo, width) ->
          let hi = lo + width in
          let got = ref [] in
          (Relation.matcher r ~positions:ps)
            (Array.of_list (List.map Const.int key))
            ~lo ~hi
            (fun t -> got := ints_of t :: !got);
          let expected =
            List.filter
              (fun row ->
                let p = Hashtbl.find pos row in
                p >= lo && p < hi && matches ps key row)
              (live_in_order ())
          in
          if List.rev !got <> expected then fail "probe [%d, %d)" lo hi
        | Iter ->
          if rows (Relation.to_list r) <> live_in_order () then fail "iter");
        if Relation.cardinal r <> Hashtbl.length pos then fail "cardinal";
        if Relation.bound r <> !bound then fail "bound"
      in
      List.iter step ops;
      let before = live_in_order () in
      Relation.compact r;
      rows (Relation.to_list r) = before
      && Relation.bound r = List.length before
      && Relation.cardinal r = List.length before
      && List.for_all
           (fun row -> Relation.mem r (Tuple.of_ints row))
           before)

(* Removing some tuples keeps every materialized index: the next probe
   answers from it without building one. *)
let test_removal_keeps_indexes () =
  let n = 100 and k = 30 in
  let r = Relation.create ~arity:2 () in
  for i = 0 to n - 1 do
    ignore (Relation.add r (Tuple.of_ints [ i mod 5; i ]))
  done;
  let probe () =
    List.map ints_of
      (Relation.lookup r ~positions:[| 0 |] ~key:[| Const.int 3 |])
  in
  ignore (probe ());
  ignore (Relation.lookup r ~positions:[| 1 |] ~key:[| Const.int 7 |]);
  let indexes = Relation.index_count r in
  Alcotest.(check int) "two indexes materialized" 2 indexes;
  let victims = List.init k (fun i -> Tuple.of_ints [ (3 * i) mod 5; 3 * i ]) in
  Alcotest.(check int) "k removed" k (Relation.remove_all r victims);
  Alcotest.(check int) "indexes kept" indexes (Relation.index_count r);
  Alcotest.(check int) "bound unchanged" n (Relation.bound r);
  Alcotest.(check int) "cardinal" (n - k) (Relation.cardinal r);
  let expected =
    List.filter_map
      (fun i ->
        if i mod 5 = 3 && not (i mod 3 = 0 && i < 3 * k) then Some [ 3; i ]
        else None)
      (List.init n Fun.id)
  in
  Alcotest.(check (list (list int))) "probe skips the removed" expected
    (probe ());
  Alcotest.(check int) "the probe built no index" indexes
    (Relation.index_count r)

(* A relation left with more dead positions than live ones is
   compacted by the deletion that tips it, so dead space stays bounded
   by live space. *)
let test_remove_facts_compacts_sparse () =
  let db = Database.create () in
  for i = 0 to 9 do
    ignore (Database.add_fact db "p" (Tuple.of_ints [ i ]))
  done;
  let rel = Database.get db "p" in
  let drop lo hi =
    ignore
      (Database.remove_facts db
         (List.init (hi - lo) (fun i -> ("p", Tuple.of_ints [ lo + i ]))))
  in
  drop 0 5;
  Alcotest.(check (pair int int)) "half dead: tombstoned in place" (5, 10)
    (Relation.cardinal rel, Relation.bound rel);
  drop 5 6;
  Alcotest.(check (pair int int)) "mostly dead: compacted" (4, 4)
    (Relation.cardinal rel, Relation.bound rel);
  Alcotest.(check (list tuple_t)) "survivors in order"
    (List.init 4 (fun i -> Tuple.of_ints [ 6 + i ]))
    (Relation.to_list rel)

(* One batched deletion: the survivors keep their order, and pairs of
   unbound predicates, absent tuples and repeats do not count. *)
let test_remove_facts () =
  let db = edb_of_edges [ (1, 2); (2, 3); (3, 4); (4, 5) ] in
  ignore (Database.add_fact db "f" (Tuple.of_ints [ 7 ]));
  ignore (Database.add_fact db "f" (Tuple.of_ints [ 8 ]));
  let removed =
    Database.remove_facts db
      [
        ("par", Tuple.of_ints [ 3; 4 ]);
        ("f", Tuple.of_ints [ 7 ]);
        ("par", Tuple.of_ints [ 1; 2 ]);
        ("par", Tuple.of_ints [ 1; 2 ]);
        ("par", Tuple.of_ints [ 9; 9 ]);
        ("nope", Tuple.of_ints [ 1 ]);
      ]
  in
  Alcotest.(check int) "present pairs removed" 3 removed;
  Alcotest.(check (list tuple_t)) "par survivors, in insertion order"
    [ Tuple.of_ints [ 2; 3 ]; Tuple.of_ints [ 4; 5 ] ]
    (Relation.to_list (Database.get db "par"));
  Alcotest.(check (list tuple_t)) "f survivors" [ Tuple.of_ints [ 8 ] ]
    (Relation.to_list (Database.get db "f"));
  Alcotest.(check (list tuple_t)) "the next probe skips the removed"
    [ Tuple.of_ints [ 4; 5 ] ]
    (Relation.lookup (Database.get db "par") ~positions:[| 0 |]
       ~key:[| Const.int 4 |]);
  Alcotest.(check bool) "the unbound predicate stays unbound" false
    (Database.mem db "nope");
  Alcotest.(check int) "an empty list removes nothing" 0
    (Database.remove_facts db [])

(* The semi-naive duplicate filter runs on every firing, and
   maintenance tests membership per candidate, so neither test may
   allocate, hit or miss. *)
let test_mem_allocation () =
  let r = Relation.create ~arity:2 () in
  for i = 0 to 999 do
    ignore (Relation.add r (Tuple.of_ints [ i; i + 1 ]))
  done;
  let raws_of a b = [| Const.to_raw (Const.int a); Const.to_raw (Const.int b) |] in
  let key_of a b = Tuple.hash_key [| Const.int a; Const.int b |] in
  let hit = raws_of 7 8 and hit_hash = key_of 7 8 in
  let miss = raws_of 8 7 and miss_hash = key_of 8 7 in
  let hit_t = Tuple.of_ints [ 7; 8 ] and miss_t = Tuple.of_ints [ 8; 7 ] in
  let calls = 100_000 in
  let per_call name test =
    let found = ref 0 in
    let before = Gc.minor_words () in
    for _ = 1 to calls do
      if test `Hit then incr found;
      if test `Miss then incr found
    done;
    let words = (Gc.minor_words () -. before) /. float_of_int (2 * calls) in
    Alcotest.(check int) (name ^ ": every hit found, no miss") calls !found;
    Alcotest.(check bool)
      (Printf.sprintf "%s: %.2f minor words per call, under 1" name words)
      true (words < 1.)
  in
  per_call "mem_raw" (function
    | `Hit -> Relation.mem_raw r ~hash:hit_hash hit
    | `Miss -> Relation.mem_raw r ~hash:miss_hash miss);
  per_call "mem" (function
    | `Hit -> Relation.mem r hit_t
    | `Miss -> Relation.mem r miss_t)

(* ------------------------------------------------------------------ *)

let storage =
  [
    case "vec grows by doubling and preserves order" test_vec_growth;
    case "cached hashes are stable" test_hash_stability;
    case "constant hashes are pinned, wide integers included"
      test_const_hash_pinned;
    case "compaction drops and rebuilds indexes identically"
      test_index_rebuild_after_compact;
    case "windowed matcher sees exactly [lo, hi)" test_windowed_matcher;
    case "wide integers stay distinct through add, mem and lookup"
      test_wide_ints_distinct;
    case "copying a relation is structural and independent" test_slab_copy;
    case "steady-state rounds stay within the allocation budget"
      test_chain_allocation_budget;
    to_alcotest prop_matcher_is_filtered_range;
    case "remove_facts deletes a batch of facts across predicates"
      test_remove_facts;
    to_alcotest prop_tombstones_match_model;
    case "removing k of n tuples keeps every index" test_removal_keeps_indexes;
    case "remove_facts compacts a relation once mostly dead"
      test_remove_facts_compacts_sparse;
    case "mem and mem_raw allocate nothing, hit or miss" test_mem_allocation;
  ]

let suites = [ ("storage", storage) ]
