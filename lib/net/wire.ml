type wconst = Wint of int | Wsym of string
type wtuple = wconst array
type wbatch = (string * wtuple) list

type wrel = {
  wr_pred : string;
  wr_arity : int;
  wr_tuples : wtuple list;
}

let of_const = function
  | Datalog.Const.Int i -> Wint i
  | Datalog.Const.Sym s -> Wsym (Datalog.Symtab.name s)

let to_const = function
  | Wint i -> Datalog.Const.int i
  | Wsym s -> Datalog.Const.sym s

let of_tuple t = Array.map of_const (Datalog.Tuple.to_array t)
let to_tuple wt = Datalog.Tuple.make (Array.map to_const wt)
let of_batch b = List.map (fun (pred, t) -> (pred, of_tuple t)) b
let to_batch wb = List.map (fun (pred, wt) -> (pred, to_tuple wt)) wb

let of_db db =
  List.filter_map
    (fun pred ->
      match Datalog.Database.find db pred with
      | None -> None
      | Some rel ->
        let tuples =
          Datalog.Relation.fold (fun t acc -> of_tuple t :: acc) rel []
        in
        Some
          {
            wr_pred = pred;
            wr_arity = Datalog.Relation.arity rel;
            wr_tuples = List.rev tuples;
          })
    (Datalog.Database.predicates db)

let add_wrel db wrel =
  let rel = Datalog.Database.declare db wrel.wr_pred wrel.wr_arity in
  List.fold_left
    (fun n wt ->
      if Datalog.Relation.add rel (to_tuple wt) then n + 1 else n)
    0 wrel.wr_tuples

type scheme_spec =
  | Spec_q of { ve : string list; vr : string list }
  | Spec_nocomm
  | Spec_example3
  | Spec_wolfson
  | Spec_tradeoff of float
  | Spec_general
  | Spec_plan of string

type restore = {
  rs_pid : int;
  rs_round : int;
  rs_tuples : wbatch;
}

type config = {
  cf_program : string;
  cf_spec : scheme_spec;
  cf_nprocs : int;
  cf_procs : int;
  cf_seed : int;
  cf_pushdown : bool;
  cf_fault : Pardatalog.Fault.plan;
  cf_partition : float;
  cf_capacity : int option;
  cf_limits : Pardatalog.Overload.limits;
  cf_edb : wrel list;
  cf_crashes_done : (int * int list) list;
  cf_restores : restore list;
  cf_hb_ms : int;
}

type psnap = { ps_row : Pardatalog.Stats.per_proc; ps_sent_row : int array }

type frame =
  | Hello of { worker : int; inc : int; attempts : int }
  | Config of config
  | Data of {
      src : int;
      dst : int;
      inc : int;
      seq : int;
      attempt : int;
      replay : bool;
      batch : wbatch;
    }
  | Tack of { src : int; dst : int; inc : int; seq : int }
  | Inject of { dst : int; batch : wbatch }
  | Patch of { dels : wbatch }
  | Update of { dst : int; batch : wbatch }
  | Collect of { gen : int }
  | Model of { gen : int; pid : int; snap : psnap; answers : wrel list }
  | Probe of { epoch : int }
  | Status of {
      worker : int;
      inc : int;
      epoch : int;
      idle : bool;
      frames_received : int;
    }
  | Heartbeat of { worker : int; inc : int; snaps : psnap list }
  | Checkpoint of {
      pid : int;
      inc : int;
      round : int;
      tuples : wbatch;
      seen : (int * int * int) list;
    }
  | Crashing of { pid : int; round : int; snaps : psnap list }
  | Breach of { reason : Pardatalog.Overload.reason }
  | Stop
  | Bye of {
      worker : int;
      inc : int;
      faults : Pardatalog.Stats.faults;
      credit_stalls : int;
      peak_in_flight : int;
    }

(* A frame larger than this is a protocol error, not data: the biggest
   legitimate frames (Config with a full EDB, a checkpoint dump) stay
   well under it, and the guard keeps a corrupted length prefix from
   demanding a multi-gigabyte allocation. *)
let max_frame_bytes = 256 * 1024 * 1024

let encode frame =
  let payload = Marshal.to_string frame [] in
  let len = String.length payload in
  if len > max_frame_bytes then failwith "Wire.encode: oversized frame";
  let b = Bytes.create (4 + len) in
  Bytes.set_int32_be b 0 (Int32.of_int len);
  Bytes.blit_string payload 0 b 4 len;
  Bytes.unsafe_to_string b

type reader = {
  mutable buf : Bytes.t;
  mutable len : int;  (* valid bytes in [buf] *)
}

let reader () = { buf = Bytes.create 65536; len = 0 }

let ensure r extra =
  if r.len + extra > Bytes.length r.buf then begin
    let cap = max (2 * Bytes.length r.buf) (r.len + extra) in
    let fresh = Bytes.create cap in
    Bytes.blit r.buf 0 fresh 0 r.len;
    r.buf <- fresh
  end

(* Decode every complete frame at the front of the buffer and compact
   the remainder. *)
let drain_frames r =
  let frames = ref [] in
  let off = ref 0 in
  let continue = ref true in
  while !continue do
    if r.len - !off >= 4 then begin
      let len = Int32.to_int (Bytes.get_int32_be r.buf !off) in
      if len < 0 || len > max_frame_bytes then
        failwith "Wire.feed: bad frame length";
      if r.len - !off >= 4 + len then begin
        let frame : frame = Marshal.from_bytes r.buf (!off + 4) in
        frames := frame :: !frames;
        off := !off + 4 + len
      end
      else continue := false
    end
    else continue := false
  done;
  if !off > 0 then begin
    Bytes.blit r.buf !off r.buf 0 (r.len - !off);
    r.len <- r.len - !off
  end;
  List.rev !frames

let feed r fd =
  ensure r 65536;
  match Unix.read fd r.buf r.len (Bytes.length r.buf - r.len) with
  | 0 -> `Eof
  | n ->
    r.len <- r.len + n;
    `Frames (drain_frames r, n)
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
    `Again
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> `Frames ([], 0)
  | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> `Eof

type outq = { q : string Queue.t; mutable off : int }

let outq () = { q = Queue.create (); off = 0 }
let push oq frame = Queue.add (encode frame) oq.q
let pending oq = not (Queue.is_empty oq.q)

let clear oq =
  Queue.clear oq.q;
  oq.off <- 0

let flush oq fd =
  let rec go n =
    if Queue.is_empty oq.q then `Wrote n
    else
      let s = Queue.peek oq.q in
      match Unix.write_substring fd s oq.off (String.length s - oq.off) with
      | k ->
        oq.off <- oq.off + k;
        if oq.off = String.length s then begin
          ignore (Queue.pop oq.q);
          oq.off <- 0
        end;
        go (n + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go n
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        `Wrote n
      | exception
          Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _) ->
        `Gone
  in
  go 0
