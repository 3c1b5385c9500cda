type 'a t = {
  mutable data : 'a array;
  mutable len : int;
  dummy : 'a;  (* fills unused capacity; never observable *)
}

let create ?(capacity = 8) ~dummy () =
  { data = Array.make (max capacity 1) dummy; len = 0; dummy }

let length v = v.len
let capacity v = Array.length v.data

let grow v =
  let cap = Array.length v.data in
  let fresh = Array.make (2 * cap) v.dummy in
  Array.blit v.data 0 fresh 0 v.len;
  v.data <- fresh

let push v x =
  if v.len = Array.length v.data then grow v;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

let get v i =
  if i < 0 || i >= v.len then invalid_arg "Vec.get: index out of bounds";
  v.data.(i)

let unsafe_get v i = Array.unsafe_get v.data i

let set v i x =
  if i < 0 || i >= v.len then invalid_arg "Vec.set: index out of bounds";
  v.data.(i) <- x

let exists p v =
  let rec go i = i < v.len && (p (Array.unsafe_get v.data i) || go (i + 1)) in
  go 0

let to_list v =
  let rec go i acc = if i < 0 then acc else go (i - 1) (v.data.(i) :: acc) in
  go (v.len - 1) []

let copy v = { data = Array.copy v.data; len = v.len; dummy = v.dummy }

let clear v =
  Array.fill v.data 0 v.len v.dummy;
  v.len <- 0

let truncate v n =
  if n < v.len then begin
    Array.fill v.data n (v.len - n) v.dummy;
    v.len <- n
  end

let compact v =
  if v.len < Array.length v.data then
    v.data <- Array.sub v.data 0 (max v.len 1)
