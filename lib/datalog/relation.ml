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
   column words, never touching the boxed tuples.

   Removal leaves a tombstone: the victim is unlinked from its dedup
   chain and its position marked in [dead], so survivors keep their
   positions and every index bucket stays valid (readers skip marked
   positions). [dead] is sized lazily: positions past its end are
   live, so on a relation that never lost a tuple ([dead] empty) the
   per-position test fails on its first comparison. [ndead] counts
   the marks. Only [compact] moves positions, squeezing the
   tombstones out. *)
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
  mutable dead : Bytes.t;  (* per position: '\001' = tombstone *)
  mutable ndead : int;  (* tombstones in [dead] *)
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
    dead = Bytes.empty;
    ndead = 0;
  }

let arity r = r.arity
let cardinal r = Vec.length r.elements - r.ndead
let bound r = Vec.length r.elements
let is_empty r = cardinal r = 0

let is_dead r pos =
  pos < Bytes.length r.dead && Bytes.unsafe_get r.dead pos <> '\000'

(* The dedup chain walks below are top-level loops, so a membership
   test allocates nothing, hit or miss. *)
let rec walk_tuple r h t p =
  p <> 0
  &&
  let pos = p - 1 in
  (Vec.unsafe_get r.hashes pos = h
   && Tuple.equal (Vec.unsafe_get r.elements pos) t)
  || walk_tuple r h t (Vec.unsafe_get r.next pos)

let mem r t =
  let h = Tuple.hash t in
  walk_tuple r h t (Array.unsafe_get r.table (h land r.mask))

(* Does the stored tuple at [pos] carry [raws] in columns [i, k)? *)
let rec same_row cols k raws pos i =
  i >= k
  || Vec.unsafe_get (Array.unsafe_get cols i) pos = Array.unsafe_get raws i
     && same_row cols k raws pos (i + 1)

let rec walk_raw r ~hash raws p =
  p <> 0
  &&
  let pos = p - 1 in
  (Vec.unsafe_get r.hashes pos = hash && same_row r.cols r.arity raws pos 0)
  || walk_raw r ~hash raws (Vec.unsafe_get r.next pos)

(* Raw-word membership: the semi-naive duplicate filter. [raws] must be
   the raw encoding of a would-be tuple of this relation's arity and
   [hash] its [Tuple.hash_key]. *)
let mem_raw r ~hash raws =
  walk_raw r ~hash raws (Array.unsafe_get r.table (hash land r.mask))

let index_insert ix t pos =
  let h = Tuple.hash_proj t ix.ix_positions in
  match Hashtbl.find_opt ix.ix_buckets h with
  | Some bucket -> Vec.push bucket pos
  | None ->
    let bucket = Vec.create ~capacity:4 ~dummy:0 () in
    Vec.push bucket pos;
    Hashtbl.add ix.ix_buckets h bucket

(* Re-thread every live position's chain link through a fresh
   [cap]-slot head table, in insertion order: a linear sweep of the
   cached hashes, no tuple access, no allocation beyond the new head
   array. Tombstones are unlinked and stay so. *)
let rethread r cap =
  let table = Array.make cap 0 in
  let mask = cap - 1 in
  let link p =
    let idx = Vec.unsafe_get r.hashes p land mask in
    Vec.set r.next p (Array.unsafe_get table idx);
    Array.unsafe_set table idx (p + 1)
  in
  for p = 0 to Vec.length r.elements - 1 do
    if not (is_dead r p) then link p
  done;
  r.table <- table;
  r.mask <- mask

(* Double the chain-head table when load passes 3/4. *)
let grow r = rethread r ((r.mask + 1) * 2)

let unchecked_push r t =
  let pos = Vec.length r.elements in
  if (pos + 1) * 4 > (r.mask + 1) * 3 then grow r;
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

let iter f r =
  let els = r.elements in
  for pos = 0 to Vec.length els - 1 do
    if not (is_dead r pos) then f (Vec.unsafe_get els pos)
  done

let fold f r init =
  let acc = ref init in
  iter (fun t -> acc := f t !acc) r;
  !acc

let to_list r = List.rev (fold List.cons r [])

let add_all dst src =
  fold (fun t n -> if add dst t then n + 1 else n) src 0

let add_all_new dst src =
  iter (fun t -> add_new dst t) src;
  cardinal src

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
    if not (is_dead r pos) then index_insert ix (Vec.unsafe_get els pos) pos
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

(* Does the stored tuple at [pos] carry [raws] at [positions]? Raw
   int words straight out of the columns: no boxed tuple is touched
   until a candidate passes. *)
let rec same_raws cols positions raws pos j =
  j >= Array.length positions
  || Vec.unsafe_get (Array.unsafe_get cols (Array.unsafe_get positions j)) pos
     = Array.unsafe_get raws j
     && same_raws cols positions raws pos (j + 1)

(* Index buckets keep tombstoned positions until [compact]; the walk
   skips them. *)
let probe_index r ix positions key ~raws ~lo ~hi f =
  match Hashtbl.find ix.ix_buckets (Tuple.hash_key key) with
  | exception Not_found -> ()
  | bucket ->
    let els = r.elements in
    let cols = r.cols in
    let n = Vec.length bucket in
    let i = ref (lower_bound bucket lo) in
    let continue = ref true in
    while !continue && !i < n do
      let pos = Vec.unsafe_get bucket !i in
      if pos >= hi then continue := false
      else begin
        if (not (is_dead r pos)) && same_raws cols positions raws pos 0 then
          f (Vec.unsafe_get els pos);
        incr i
      end
    done

let iter_range r ~lo ~hi f =
  let els = r.elements in
  let hi = min hi (Vec.length els) in
  for pos = lo to hi - 1 do
    if not (is_dead r pos) then f (Vec.unsafe_get els pos)
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
  let hi = min hi (Vec.length els) in
  for pos = lo to hi - 1 do
    if (not (is_dead r pos)) && same_raws cols positions raws pos 0 then
      f (Vec.unsafe_get els pos)
  done

(* The staged form the join inner loop uses: index resolution — a
   string of hashtable lookups that is invariant across the probes of
   one Joiner.run — is paid at most once, and each application costs
   only the bucket lookup plus the windowed walk (or, for windows
   narrower than [scan_cutoff], a direct columnar scan that never
   touches the index at all — the index is then built only when a
   wide window first needs it). The returned closure reads the live
   relation, so tuples added after staging are still found and tuples
   removed after staging are skipped; it is invalidated by [compact]
   and [clear] (which drop indexes) and must not be kept across them.
   It owns a scratch key buffer, so it is not re-entrant: don't call
   it from within its own callback. *)
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
  if Array.length positions = 0 then iter f r
  else (matcher r ~positions) key ~lo:0 ~hi:(bound r) f

let lookup r ~positions ~key =
  if Array.length positions = 0 then to_list r
  else begin
    let acc = ref [] in
    iter_matching r ~positions ~key (fun t -> acc := t :: !acc);
    List.rev !acc
  end

(* A structural clone: the element vector, columns, dedup chains and
   tombstones are duplicated with flat array copies, never rehashing a
   tuple, so every position — and any watermark held over one — means
   the same in the copy.
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
    dead = Bytes.copy r.dead;
    ndead = r.ndead;
  }

let drop_indexes r =
  Hashtbl.reset r.indexes;
  r.ix_all <- [||]

let clear r =
  Array.fill r.table 0 (Array.length r.table) 0;
  Vec.clear r.next;
  Vec.clear r.hashes;
  Array.iter Vec.clear r.cols;
  Vec.clear r.elements;
  drop_indexes r;
  r.dead <- Bytes.empty;
  r.ndead <- 0

(* Mark [pos] dead, growing [dead] to cover it (doubling, so marking
   is amortized O(1)), and release the boxed tuple. *)
let bury r pos =
  if pos >= Bytes.length r.dead then begin
    let dead =
      Bytes.make (max (Vec.length r.elements) (2 * Bytes.length r.dead)) '\000'
    in
    Bytes.blit r.dead 0 dead 0 (Bytes.length r.dead);
    r.dead <- dead
  end;
  Bytes.unsafe_set r.dead pos '\001';
  r.ndead <- r.ndead + 1;
  Vec.set r.elements pos dummy_tuple

(* Find [t] on its dedup chain, unlink it (from the head slot or from
   its predecessor's [next]) and bury its position: O(chain length),
   whatever the relation's size. *)
let remove r t =
  let h = Tuple.hash t in
  let idx = h land r.mask in
  let els = r.elements and hashes = r.hashes and next = r.next in
  let rec walk prev p =
    p <> 0
    &&
    let pos = p - 1 in
    if Vec.unsafe_get hashes pos = h && Tuple.equal (Vec.unsafe_get els pos) t
    then begin
      let after = Vec.unsafe_get next pos in
      if prev = 0 then Array.unsafe_set r.table idx after
      else Vec.set next (prev - 1) after;
      bury r pos;
      true
    end
    else walk p (Vec.unsafe_get next pos)
  in
  walk 0 (Array.unsafe_get r.table idx)

let remove_all r victims =
  List.fold_left (fun n t -> if remove r t then n + 1 else n) 0 victims

(* Squeeze the tombstones out: survivors slide down in order (the only
   operation that moves a position), the chains are re-threaded over
   the new positions, and the indexes — whose buckets name the old
   ones — are dropped. *)
let compact r =
  if r.ndead > 0 then begin
    let n = Vec.length r.elements in
    let w = ref 0 in
    for pos = 0 to n - 1 do
      if not (is_dead r pos) then begin
        if !w < pos then begin
          Vec.set r.elements !w (Vec.unsafe_get r.elements pos);
          Vec.set r.hashes !w (Vec.unsafe_get r.hashes pos);
          Array.iter (fun c -> Vec.set c !w (Vec.unsafe_get c pos)) r.cols
        end;
        incr w
      end
    done;
    Vec.truncate r.elements !w;
    Vec.truncate r.hashes !w;
    Vec.truncate r.next !w;
    Array.iter (fun c -> Vec.truncate c !w) r.cols;
    r.dead <- Bytes.empty;
    r.ndead <- 0;
    rethread r (r.mask + 1)
  end;
  Vec.compact r.elements;
  Vec.compact r.hashes;
  Vec.compact r.next;
  Array.iter Vec.compact r.cols;
  drop_indexes r

let of_list ~arity tuples =
  let r = create ~arity () in
  List.iter (fun t -> ignore (add r t)) tuples;
  r

let equal a b =
  a.arity = b.arity
  && cardinal a = cardinal b
  && fold (fun t ok -> ok && mem b t) a true

let pp ppf r =
  Format.fprintf ppf "{@[%a@]}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
       Tuple.pp)
    (sorted_elements r)

let index_count r = Hashtbl.length r.indexes
