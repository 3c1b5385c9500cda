type t =
  | Int of int
  | Sym of Symtab.sym

let int i = Int i
let sym s = Sym (Symtab.intern s)

let compare a b =
  match a, b with
  | Int x, Int y -> Int.compare x y
  | Sym x, Sym y -> Symtab.compare x y
  | Int _, Sym _ -> -1
  | Sym _, Int _ -> 1

let equal a b = compare a b = 0

(* splitmix64 finalizer, truncated to OCaml's 63-bit ints. Constants of
   different kinds are separated by a kind tag mixed into the seed. *)
let mix64 z =
  let z = z * 0x1E3779B97F4A7C15 in
  let z = (z lxor (z lsr 30)) * 0x3F58476D1CE4E5B9 in
  let z = (z lxor (z lsr 27)) * 0x14D049BB133111EB in
  z lxor (z lsr 31)

(* The payload shifted left by one, with the low bit telling ints
   from symbols. Integers with magnitude >= 2^61 wrap here, so two of
   them can share a word: [hash] reads this word (its values are
   pinned by routing, certificates and every counter), while
   [to_raw] replaces it for wide integers. *)
let shifted = function
  | Int i -> i lsl 1
  | Sym s -> (Symtab.to_int s lsl 1) lor 1

(* Integers outside [-2^61, 2^61) are interned, like symbols, into a
   process-wide table; the [k]th one encodes as the negative odd word
   [-2k - 1]. Symbol words are non-negative, so no symbol shares it. *)
let wide_lock = Mutex.create ()
let wide : (int, int) Hashtbl.t = Hashtbl.create 16

let wide_raw i =
  Mutex.lock wide_lock;
  let k =
    match Hashtbl.find_opt wide i with
    | Some k -> k
    | None ->
      let k = Hashtbl.length wide in
      Hashtbl.add wide i k;
      k
  in
  Mutex.unlock wide_lock;
  (-2 * k) - 1

let to_raw = function
  | Int i ->
    if i >= -0x2000000000000000 && i < 0x2000000000000000 then i lsl 1
    else wide_raw i
  | Sym s -> (Symtab.to_int s lsl 1) lor 1

let hash c = mix64 (shifted c) land max_int
let hash_seeded seed c = mix64 (shifted c lxor mix64 seed) land max_int

(* Symbols that are not plain lowercase identifiers must be quoted so
   that printed constants reparse to themselves. *)
let plain_symbol s =
  let ident_char c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || c = '_'
  in
  String.length s > 0
  && s.[0] >= 'a'
  && s.[0] <= 'z'
  && String.for_all ident_char s

let pp ppf = function
  | Int i -> Format.pp_print_int ppf i
  | Sym s ->
    let name = Symtab.name s in
    if plain_symbol name then Format.pp_print_string ppf name
    else Format.fprintf ppf "'%s'" name

let to_string c = Format.asprintf "%a" pp c
