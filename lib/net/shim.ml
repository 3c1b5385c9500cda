module Fault = Pardatalog.Fault

type t = {
  plan : Fault.plan;
  partition : float;
  fc : Fault.counters;
  index : (int * int, int) Hashtbl.t;  (* channel -> frames routed *)
}

let create ~plan ~partition fc =
  if not (partition >= 0.0 && partition < 1.0) then
    invalid_arg "Shim.create: partition must be in [0, 1)";
  { plan; partition; fc; index = Hashtbl.create 64 }

type verdict = {
  v_copies : int;
  v_delay_ms : int;
}

let mix64 z =
  let z = z * 0x1E3779B97F4A7C15 in
  let z = (z lxor (z lsr 30)) * 0x3F58476D1CE4E5B9 in
  let z = (z lxor (z lsr 27)) * 0x14D049BB133111EB in
  z lxor (z lsr 31)

let window = 16

(* A partitioned window is a deterministic function of the channel and
   the window index; the fair-lossy ceiling still applies, so a
   retransmitted frame eventually crosses even a cut link (the cut
   heals from the retrier's point of view). *)
let partitioned t ~src ~dst ~attempt idx =
  t.partition > 0.0
  && attempt < Fault.drop_ceiling
  &&
  let epoch = idx / window in
  let h =
    mix64
      (mix64 ((t.plan.Fault.seed * 0x9E3779B1) lxor (src * 8191) lxor dst)
       lxor epoch)
    land max_int
  in
  float_of_int (h mod 1_000_000) /. 1_000_000. < t.partition

let verdict t ~src ~dst ~seq ~attempt =
  let idx =
    let k = (src, dst) in
    let i = Option.value ~default:0 (Hashtbl.find_opt t.index k) in
    Hashtbl.replace t.index k (i + 1);
    i
  in
  let v_copies, f =
    Fault.deliveries t.plan t.fc
      ~cut:(partitioned t ~src ~dst ~attempt idx)
      ~src ~dst ~seq ~attempt
  in
  (* A simulated-round delay becomes 2 ms of wire latency, a reorder
     jitter 1 ms: enough to change arrival order, small enough to keep
     test wall-clock low. *)
  { v_copies; v_delay_ms = (2 * f.Fault.f_delay) + f.Fault.f_jitter }
