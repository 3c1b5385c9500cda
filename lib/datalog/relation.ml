(* Index buckets are keyed by the *hash* of a tuple's projection on
   the index positions, not by a materialized key tuple: inserts and
   lookups cost one hash fold and zero allocations. Hash collisions
   put unrelated tuples in one bucket, so every probe re-checks the
   projection against the raw column words.

   A bucket holds *insertion positions* (indexes into [elements]), not
   tuple pointers: an unboxed, strictly ascending int vector. Ascending
   order is what makes windowed scans cheap — a probe over positions
   [lo, hi) binary-searches the lower bound and walks a contiguous int
   run, touching only in-range candidates. The semi-naive engine sits
   its Old/Delta/Current sources on exactly this: three windows over
   one append-only store instead of three physical relations. *)
type index = {
  ix_positions : int array;
  ix_buckets : (int, int Vec.t) Hashtbl.t;
}

(* Storage: the boxed tuples in insertion order, plus one unboxed int
   column per position holding [Const.to_raw] of every stored constant
   (injective on all constants), and dedup through a flat open-chained
   hash table: [table] maps [hash land mask] to a chain head
   (insertion position + 1; 0 = empty), [next] threads the chain
   through the elements themselves, and [hashes] caches each element's
   tuple hash for chain filtering and table resizes. An insert is a
   few int pushes and one array store — no per-bucket heap structure,
   no allocation beyond amortized array growth — and a raw-word
   membership probe walks the chain comparing cached hashes and then
   column words, never touching the boxed tuples. *)
type t = {
  arity : int;
  elements : Tuple.t Vec.t;  (* insertion order *)
  cols : int Vec.t array;  (* one per position *)
  mutable table : int array;  (* chain heads: position + 1; 0 = empty *)
  mutable mask : int;  (* Array.length table - 1; power of two *)
  next : int Vec.t;  (* per element: next chain entry, same encoding *)
  hashes : int Vec.t;  (* per element: cached Tuple.hash *)
  indexes : (int list, index) Hashtbl.t;
  mutable ix_all : index array;  (* = indexes, iterable without closures *)
}

let dummy_tuple = Tuple.of_list []

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (k * 2)

let create ?(initial_size = 64) ~arity () =
  let cap = pow2_at_least (max 16 initial_size) 16 in
  let ints () = Vec.create ~capacity:(max initial_size 8) ~dummy:0 () in
  {
    arity;
    elements = Vec.create ~capacity:(max initial_size 8) ~dummy:dummy_tuple ();
    cols = Array.init arity (fun _ -> ints ());
    table = Array.make cap 0;
    mask = cap - 1;
    next = ints ();
    hashes = ints ();
    indexes = Hashtbl.create 4;
    ix_all = [||];
  }

let arity r = r.arity
let cardinal r = Vec.length r.elements
let is_empty r = Vec.is_empty r.elements

let mem r t =
  let h = Tuple.hash t in
  let els = r.elements in
  let hashes = r.hashes and next = r.next in
  let rec walk p =
    p <> 0
    &&
    let pos = p - 1 in
    (Vec.unsafe_get hashes pos = h && Tuple.equal (Vec.unsafe_get els pos) t)
    || walk (Vec.unsafe_get next pos)
  in
  walk (Array.unsafe_get r.table (h land r.mask))

(* Raw-word membership: the semi-naive duplicate filter. [raws] must be
   the raw encoding of a would-be tuple of this relation's arity and
   [hash] its [Tuple.hash_key]. *)
let mem_raw r ~hash raws =
  let cols = r.cols in
  let k = r.arity in
  let hashes = r.hashes and next = r.next in
  let rec same pos i =
    i >= k
    || Vec.unsafe_get (Array.unsafe_get cols i) pos = Array.unsafe_get raws i
       && same pos (i + 1)
  in
  let rec walk p =
    p <> 0
    &&
    let pos = p - 1 in
    (Vec.unsafe_get hashes pos = hash && same pos 0)
    || walk (Vec.unsafe_get next pos)
  in
  walk (Array.unsafe_get r.table (hash land r.mask))

let index_insert ix t pos =
  let h = Tuple.hash_proj t ix.ix_positions in
  match Hashtbl.find_opt ix.ix_buckets h with
  | Some bucket -> Vec.push bucket pos
  | None ->
    let bucket = Vec.create ~capacity:4 ~dummy:0 () in
    Vec.push bucket pos;
    Hashtbl.add ix.ix_buckets h bucket

(* Double the chain-head table when load passes 3/4: chains are
   rebuilt in insertion order by re-threading [next] through the
   fresh table — a linear sweep of the cached hashes, no tuple access,
   no allocation beyond the new head array. *)
let grow r n =
  let cap = (r.mask + 1) * 2 in
  let table = Array.make cap 0 in
  let mask = cap - 1 in
  for p = 0 to n - 1 do
    let idx = Vec.unsafe_get r.hashes p land mask in
    Vec.set r.next p (Array.unsafe_get table idx);
    Array.unsafe_set table idx (p + 1)
  done;
  r.table <- table;
  r.mask <- mask

let unchecked_push r t =
  let pos = Vec.length r.elements in
  if (pos + 1) * 4 > (r.mask + 1) * 3 then grow r pos;
  let h = Tuple.hash t in
  let idx = h land r.mask in
  Vec.push r.hashes h;
  Vec.push r.next (Array.unsafe_get r.table idx);
  Array.unsafe_set r.table idx (pos + 1);
  let cols = r.cols in
  for i = 0 to r.arity - 1 do
    Vec.push (Array.unsafe_get cols i) (Const.to_raw (Tuple.get t i))
  done;
  Vec.push r.elements t;
  let ixs = r.ix_all in
  for k = 0 to Array.length ixs - 1 do
    index_insert (Array.unsafe_get ixs k) t pos
  done

let add r t =
  if Tuple.arity t <> r.arity then
    invalid_arg
      (Printf.sprintf "Relation.add: arity %d, expected %d" (Tuple.arity t)
         r.arity);
  if mem r t then false
  else begin
    unchecked_push r t;
    true
  end

(* Insert without the membership probe: sound only when the caller
   guarantees [t] is absent (e.g. the semi-naive merge of a delta whose
   tuples were checked against the destination at derivation time). A
   wrong call corrupts the relation with a duplicate. *)
let add_new r t = unchecked_push r t

let iter f r = Vec.iter f r.elements
let fold f r init = Vec.fold f r.elements init
let to_list r = Vec.to_list r.elements

let add_all dst src =
  fold (fun t n -> if add dst t then n + 1 else n) src 0

let add_all_new dst src =
  Vec.iter (fun t -> add_new dst t) src.elements;
  Vec.length src.elements

let sorted_elements r = List.sort Tuple.compare (to_list r)

let build_index r positions =
  let ix =
    {
      ix_positions = positions;
      ix_buckets = Hashtbl.create (max 16 (cardinal r));
    }
  in
  let els = r.elements in
  for pos = 0 to Vec.length els - 1 do
    index_insert ix (Vec.unsafe_get els pos) pos
  done;
  Hashtbl.add r.indexes (Array.to_list positions) ix;
  r.ix_all <- Array.append r.ix_all [| ix |];
  ix

let index_for r positions =
  match Hashtbl.find_opt r.indexes (Array.to_list positions) with
  | Some ix -> ix
  | None -> build_index r positions

(* First bucket slot whose position is >= lo; the bucket is strictly
   ascending, so binary search. *)
let lower_bound bucket lo =
  let n = Vec.length bucket in
  if lo = 0 then 0
  else begin
    let left = ref 0 and right = ref n in
    while !left < !right do
      let mid = (!left + !right) / 2 in
      if Vec.unsafe_get bucket mid < lo then left := mid + 1
      else right := mid
    done;
    !left
  end

(* Candidates are verified by comparing raw int words straight out of
   the columns: no boxed tuple is touched until a candidate passes. *)
let probe_index r ix positions key ~raws ~lo ~hi f =
  match Hashtbl.find ix.ix_buckets (Tuple.hash_key key) with
  | exception Not_found -> ()
  | bucket ->
    let els = r.elements in
    let cols = r.cols in
    let np = Array.length positions in
    let n = Vec.length bucket in
    let i = ref (lower_bound bucket lo) in
    let continue = ref true in
    while !continue && !i < n do
      let pos = Vec.unsafe_get bucket !i in
      if pos >= hi then continue := false
      else begin
        let rec same j =
          j >= np
          || Vec.unsafe_get
               (Array.unsafe_get cols (Array.unsafe_get positions j))
               pos
             = Array.unsafe_get raws j
             && same (j + 1)
        in
        if same 0 then f (Vec.unsafe_get els pos);
        incr i
      end
    done

let iter_range r ~lo ~hi f =
  let els = r.elements in
  for pos = lo to min hi (Vec.length els) - 1 do
    f (Vec.unsafe_get els pos)
  done

(* Below this window width a probe skips the index entirely and scans
   the key columns over [lo, hi) directly: for the narrow Delta windows
   the semi-naive engine probes every round, a sequential sweep of a
   handful of unboxed ints beats a hash lookup plus binary search.
   Enumeration order (ascending positions of the true matches) is
   identical on both paths, so counters downstream cannot tell. *)
let scan_cutoff = 16

let scan_window r positions ~raws ~lo ~hi f =
  let cols = r.cols in
  let els = r.elements in
  let np = Array.length positions in
  let hi = min hi (Vec.length els) in
  for pos = lo to hi - 1 do
    let rec same j =
      j >= np
      || Vec.unsafe_get (Array.unsafe_get cols (Array.unsafe_get positions j))
           pos
         = Array.unsafe_get raws j
         && same (j + 1)
    in
    if same 0 then f (Vec.unsafe_get els pos)
  done

(* The staged form the join inner loop uses: index resolution — a
   string of hashtable lookups that is invariant across the probes of
   one Joiner.run — is paid at most once, and each application costs
   only the bucket lookup plus the windowed walk (or, for windows
   narrower than [scan_cutoff], a direct columnar scan that never
   touches the index at all — the index is then built only when a
   wide window first needs it). The returned closure reads the live
   relation, so tuples added after staging are still found; it is
   invalidated by [compact] and [clear] (which drop indexes) and must
   not be kept across them. It owns a scratch key buffer, so it is not
   re-entrant: don't call it from within its own callback. *)
let matcher r ~positions =
  if Array.length positions = 0 then fun _key ~lo ~hi f ->
    iter_range r ~lo ~hi f
  else begin
    let np = Array.length positions in
    let rawbuf = Array.make np 0 in
    let ix = ref None in
    fun key ~lo ~hi f ->
      if hi > lo then begin
        for j = 0 to np - 1 do
          Array.unsafe_set rawbuf j (Const.to_raw (Array.unsafe_get key j))
        done;
        if hi - lo <= scan_cutoff then
          scan_window r positions ~raws:rawbuf ~lo ~hi f
        else begin
          let ix =
            match !ix with
            | Some ix -> ix
            | None ->
              let resolved = index_for r positions in
              ix := Some resolved;
              resolved
          in
          probe_index r ix positions key ~raws:rawbuf ~lo ~hi f
        end
      end
  end

let iter_matching r ~positions ~key f =
  if Array.length positions = 0 then Vec.iter f r.elements
  else (matcher r ~positions) key ~lo:0 ~hi:(cardinal r) f

let lookup r ~positions ~key =
  if Array.length positions = 0 then to_list r
  else begin
    let acc = ref [] in
    iter_matching r ~positions ~key (fun t -> acc := t :: !acc);
    List.rev !acc
  end

(* A structural clone: the element vector, columns and dedup chains
   are duplicated with flat array copies, never rehashing a tuple.
   This is what makes [Database.copy] (snapshotting an engine's model,
   assembling run results) cheap enough to sit inside
   [Seminaive.evaluate]. *)
let copy r =
  {
    arity = r.arity;
    elements = Vec.copy r.elements;
    cols = Array.map Vec.copy r.cols;
    table = Array.copy r.table;
    mask = r.mask;
    next = Vec.copy r.next;
    hashes = Vec.copy r.hashes;
    indexes = Hashtbl.create 4;
    ix_all = [||];
  }

let clear r =
  Array.fill r.table 0 (Array.length r.table) 0;
  Vec.clear r.next;
  Vec.clear r.hashes;
  Array.iter Vec.clear r.cols;
  Vec.clear r.elements;
  Hashtbl.reset r.indexes;
  r.ix_all <- [||]

(* Deletion support for the incremental-maintenance layer. The store is
   append-only by design, so removal is an in-place rebuild: surviving
   tuples are re-pushed in their original insertion order (window
   positions of the survivors shift but stay ascending) and every
   materialized index is dropped — bucket positions would all be stale —
   to be rebuilt lazily by the next probe. Staged matchers taken before
   a removal are invalidated, exactly as by [compact]/[clear]. *)
let remove_all r keep_out =
  let victims = ref 0 in
  Vec.iter (fun t -> if keep_out t then incr victims) r.elements;
  if !victims = 0 then 0
  else begin
    let survivors = List.filter (fun t -> not (keep_out t)) (to_list r) in
    clear r;
    List.iter (fun t -> unchecked_push r t) survivors;
    !victims
  end

let compact r =
  Vec.compact r.elements;
  Array.iter Vec.compact r.cols;
  Hashtbl.reset r.indexes;
  r.ix_all <- [||]

let of_list ~arity tuples =
  let r = create ~arity () in
  List.iter (fun t -> ignore (add r t)) tuples;
  r

let equal a b =
  a.arity = b.arity
  && cardinal a = cardinal b
  && Vec.for_all (fun t -> mem b t) a.elements

let pp ppf r =
  Format.fprintf ppf "{@[%a@]}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
       Tuple.pp)
    (sorted_elements r)

let index_count r = Hashtbl.length r.indexes
