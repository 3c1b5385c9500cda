(* A tuple caches its structural hash at construction, so the hot
   paths — `seen` probes, index inserts, channel dedup — never rehash
   the constant array. Equality takes the physical-equality fast path
   first, then compares cached hashes (cheap rejection), and only then
   the constants. *)
type t = {
  data : Const.t array;
  hcache : int;
}

(* Polynomial combination of per-constant hashes; cheap and stable.
   [hash_key] must agree with [hash] on the projected array so that
   index lookups by a bare key array land in the right bucket. *)
let hash_key key =
  let h = ref (Array.length key) in
  for i = 0 to Array.length key - 1 do
    h := (!h * 0x01000193) lxor Const.hash (Array.unsafe_get key i)
  done;
  !h land max_int

let make a = { data = a; hcache = hash_key a }

(* Trusted constructor for callers (Joiner) that already folded the
   hash while filling the array; must equal [hash_key a]. *)
let make_with_hash a h = { data = a; hcache = h }

let of_list l = make (Array.of_list l)
let arity t = Array.length t.data
let get t i = t.data.(i)
let to_array t = Array.copy t.data
let hash t = t.hcache

let project t positions =
  make (Array.map (fun p -> t.data.(p)) positions)

let project_key t positions =
  let n = Array.length positions in
  if n = 0 then [||]
  else begin
    let key = Array.make n t.data.(positions.(0)) in
    for i = 1 to n - 1 do
      key.(i) <- t.data.(positions.(i))
    done;
    key
  end

let hash_proj t positions =
  let h = ref (Array.length positions) in
  for i = 0 to Array.length positions - 1 do
    h :=
      (!h * 0x01000193)
      lxor Const.hash t.data.(Array.unsafe_get positions i)
  done;
  !h land max_int

let compare a b =
  if a == b then 0
  else
    let la = Array.length a.data and lb = Array.length b.data in
    if la <> lb then Int.compare la lb
    else
      let rec go i =
        if i = la then 0
        else
          let c = Const.compare a.data.(i) b.data.(i) in
          if c <> 0 then c else go (i + 1)
      in
      go 0

let equal a b =
  a == b
  || (a.hcache = b.hcache
     &&
     let la = Array.length a.data in
     la = Array.length b.data
     &&
     let rec go i =
       i >= la || (Const.equal a.data.(i) b.data.(i) && go (i + 1))
     in
     go 0)

let pp ppf t =
  Format.fprintf ppf "(@[%a@])"
    (Format.pp_print_array
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
       Const.pp)
    t.data

let to_string t = Format.asprintf "%a" pp t
let of_ints is = of_list (List.map Const.int is)
let of_syms ss = of_list (List.map Const.sym ss)
