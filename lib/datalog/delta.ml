type op = Insert | Delete

type update = { u_op : op; u_pred : string; u_tuple : Tuple.t }

module Batch = struct
  (* Updates in arrival order: the order matters until [normalize]
     collapses the batch to its net effect (last write wins). *)
  type t = update list

  let empty : t = []
  let is_empty (b : t) = b = []
  let size (b : t) = List.length b
  let of_list l = l
  let to_list (b : t) = b
  let add b op pred tuple = b @ [ { u_op = op; u_pred = pred; u_tuple = tuple } ]
  let insert pred tuple = { u_op = Insert; u_pred = pred; u_tuple = tuple }
  let delete pred tuple = { u_op = Delete; u_pred = pred; u_tuple = tuple }

  let preds (b : t) =
    List.sort_uniq String.compare (List.map (fun u -> u.u_pred) b)

  (* Net effect of the batch against the current store: the last
     operation on each (pred, tuple) wins, and operations that would
     not change the store — inserting a present tuple, deleting an
     absent one — are dropped. The result is a pair of disjoint
     effective (insertions, deletions); an idempotent re-application of
     the same batch therefore normalizes to nothing. *)
  let normalize (b : t) ~present =
    let module K = struct
      type t = string * Tuple.t

      let equal (p1, t1) (p2, t2) = String.equal p1 p2 && Tuple.equal t1 t2
      let hash (p, t) = (Hashtbl.hash p * 0x01000193) lxor Tuple.hash t
    end in
    let module Ktbl = Hashtbl.Make (K) in
    let last = Ktbl.create (max 16 (List.length b)) in
    let order = ref [] in
    List.iter
      (fun u ->
        let key = (u.u_pred, u.u_tuple) in
        if not (Ktbl.mem last key) then order := key :: !order;
        Ktbl.replace last key u.u_op)
      b;
    let adds = ref [] and rems = ref [] in
    List.iter
      (fun ((pred, tuple) as key) ->
        match Ktbl.find last key with
        | Insert -> if not (present pred tuple) then adds := (pred, tuple) :: !adds
        | Delete -> if present pred tuple then rems := (pred, tuple) :: !rems)
      (List.rev !order);
    (List.rev !adds, List.rev !rems)
end

(* ------------------------------------------------------------------ *)
(* Per-batch accounting                                               *)

type summary = {
  s_inserted : int;  (** Net tuples added to the model (base + derived). *)
  s_deleted : int;  (** Net tuples removed from the model. *)
  s_rederived : int;  (** DRed: overdeleted tuples saved by rederivation. *)
  s_overdeleted : int;  (** DRed: tuples provisionally deleted. *)
  s_firings : int;  (** Incremental rule firings spent on the batch. *)
}

let empty_summary =
  { s_inserted = 0; s_deleted = 0; s_rederived = 0; s_overdeleted = 0;
    s_firings = 0 }

let add_summary a b =
  {
    s_inserted = a.s_inserted + b.s_inserted;
    s_deleted = a.s_deleted + b.s_deleted;
    s_rederived = a.s_rederived + b.s_rederived;
    s_overdeleted = a.s_overdeleted + b.s_overdeleted;
    s_firings = a.s_firings + b.s_firings;
  }

let pp_summary ppf s =
  Format.fprintf ppf
    "@[inserted=%d deleted=%d overdeleted=%d rederived=%d firings=%d@]"
    s.s_inserted s.s_deleted s.s_overdeleted s.s_rederived s.s_firings
