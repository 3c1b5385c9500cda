type t = string * Tuple.t

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal (p1, t1) (p2, t2) = String.equal p1 p2 && Tuple.equal t1 t2
  let hash (p, t) = (Hashtbl.hash p * 0x01000193) lxor Tuple.hash t
end)
