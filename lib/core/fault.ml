type crash = {
  cr_pid : Pid.t;
  cr_round : int;
  cr_down : int;
}

type plan = {
  seed : int;
  drop : float;
  dup : float;
  reorder : float;
  delay : float;
  max_delay : int;
  crashes : crash list;
  checkpoint_every : int option;
}

let none =
  {
    seed = 0;
    drop = 0.0;
    dup = 0.0;
    reorder = 0.0;
    delay = 0.0;
    max_delay = 1;
    crashes = [];
    checkpoint_every = None;
  }

let is_none p =
  p.drop = 0.0 && p.dup = 0.0 && p.reorder = 0.0 && p.delay = 0.0
  && p.crashes = [] && p.checkpoint_every = None

let make ?(seed = 0) ?(drop = 0.0) ?(dup = 0.0) ?(reorder = 0.0)
    ?(delay = 0.0) ?(max_delay = 1) ?(crashes = []) ?checkpoint_every () =
  let check_prob name p =
    if p < 0.0 || p >= 1.0 then
      invalid_arg
        (Printf.sprintf "Fault.make: %s must be in [0, 1), got %g" name p)
  in
  check_prob "drop" drop;
  check_prob "dup" dup;
  check_prob "reorder" reorder;
  check_prob "delay" delay;
  if max_delay < 1 then invalid_arg "Fault.make: max_delay must be >= 1";
  (match checkpoint_every with
   | Some k when k < 1 ->
     invalid_arg "Fault.make: checkpoint_every must be >= 1"
   | _ -> ());
  List.iter
    (fun c ->
      if c.cr_round < 0 then invalid_arg "Fault.make: crash round < 0";
      if c.cr_down < 1 then invalid_arg "Fault.make: crash downtime < 1")
    crashes;
  { seed; drop; dup; reorder; delay; max_delay; crashes; checkpoint_every }

let drop_ceiling = 12

(* splitmix64-style finalizer, as in Workload.Rng, reimplemented here
   so lib/core stays independent of the workload library. *)
let mix z =
  let z = (z lxor (z lsr 30)) * 0x3F58476D1CE4E5B9 in
  let z = (z lxor (z lsr 27)) * 0x14D049BB133111EB in
  z lxor (z lsr 31)

let hash plan ~salt ~a ~b ~c ~d =
  mix
    (mix ((plan.seed * 0x9E3779B9) lxor (salt * 0x85EBCA6B))
     + mix ((a * 0xC2B2AE35) lxor (b * 0x27D4EB2F))
     + mix ((c * 0x165667B1) lxor (d * 0x01000193)))
  land max_int

(* [chance h p]: interpret hash [h] as a uniform draw and compare with
   probability [p]. *)
let chance h p = p > 0.0 && float_of_int (h land 0xFFFFFF) < p *. 16777216.0

type fate = {
  f_drop : bool;
  f_dup : bool;
  f_delay : int;
  f_jitter : int;
}

let fate plan ~src ~dst ~seq ~attempt =
  let h salt = hash plan ~salt ~a:src ~b:dst ~c:seq ~d:attempt in
  let f_drop = attempt < drop_ceiling && chance (h 1) plan.drop in
  let f_dup = chance (h 2) plan.dup in
  let f_jitter = if chance (h 3) plan.reorder then 1 + (h 4 mod 2) else 0 in
  let f_delay =
    if chance (h 5) plan.delay then 1 + (h 6 mod plan.max_delay) else 0
  in
  { f_drop; f_dup; f_delay; f_jitter }

let ack_dropped plan ~src ~dst ~seq ~attempt =
  attempt < drop_ceiling
  && chance (hash plan ~salt:7 ~a:src ~b:dst ~c:seq ~d:attempt) plan.drop

let reorder_inbox plan ~pid ~round =
  chance (hash plan ~salt:8 ~a:pid ~b:round ~c:0 ~d:0) plan.reorder

let shuffle plan ~pid ~round arr =
  for i = Array.length arr - 1 downto 1 do
    let j = hash plan ~salt:9 ~a:pid ~b:round ~c:i ~d:0 mod (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let crash_at plan ~pid ~round =
  List.find_opt
    (fun c -> c.cr_pid = pid && c.cr_round = round)
    plan.crashes

let retransmit_after ~attempt = 6 lsl min attempt 4

let parse_crashes s =
  let parse_one part =
    match String.index_opt part '@' with
    | None -> Error (Printf.sprintf "bad crash spec %S: expected PID@ROUND" part)
    | Some i ->
      let pid_s = String.sub part 0 i in
      let rest = String.sub part (i + 1) (String.length part - i - 1) in
      let round_s, down_s =
        match String.index_opt rest '+' with
        | None -> (rest, "1")
        | Some j ->
          ( String.sub rest 0 j,
            String.sub rest (j + 1) (String.length rest - j - 1) )
      in
      (match
         (int_of_string_opt pid_s, int_of_string_opt round_s,
          int_of_string_opt down_s)
       with
       | Some pid, Some round, Some down when round >= 0 && down >= 1 ->
         Ok { cr_pid = pid; cr_round = round; cr_down = down }
       | _ ->
         Error
           (Printf.sprintf "bad crash spec %S: expected PID@ROUND[+DOWN]"
              part))
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | part :: rest ->
      (match parse_one (String.trim part) with
       | Ok c -> go (c :: acc) rest
       | Error _ as e -> e)
  in
  match String.trim s with
  | "" -> Ok []
  | s -> go [] (String.split_on_char ',' s)

type counters = {
  mutable n_drops : int;
  mutable n_dups_injected : int;
  mutable n_dups_suppressed : int;
  mutable n_delays : int;
  mutable n_reorders : int;
  mutable n_retransmits : int;
  mutable n_acks : int;
  mutable n_crashes : int;
  mutable n_recoveries : int;
  mutable n_replayed : int;
  mutable n_checkpoints : int;
  mutable n_restores : int;
}

let counters () =
  {
    n_drops = 0;
    n_dups_injected = 0;
    n_dups_suppressed = 0;
    n_delays = 0;
    n_reorders = 0;
    n_retransmits = 0;
    n_acks = 0;
    n_crashes = 0;
    n_recoveries = 0;
    n_replayed = 0;
    n_checkpoints = 0;
    n_restores = 0;
  }

(* A plan without message faults draws no hash: the net shim asks for
   every fault-free frame. *)
let deliveries ?(cut = false) plan fc ~src ~dst ~seq ~attempt =
  let f =
    if plan.drop = 0.0 && plan.dup = 0.0 && plan.reorder = 0.0
       && plan.delay = 0.0
    then { f_drop = false; f_dup = false; f_delay = 0; f_jitter = 0 }
    else fate plan ~src ~dst ~seq ~attempt
  in
  if f.f_drop || cut then begin
    fc.n_drops <- fc.n_drops + 1;
    (0, f)
  end
  else begin
    if f.f_delay > 0 then fc.n_delays <- fc.n_delays + 1;
    if f.f_jitter > 0 then fc.n_reorders <- fc.n_reorders + 1;
    if f.f_dup then begin
      fc.n_dups_injected <- fc.n_dups_injected + 1;
      (2, f)
    end
    else (1, f)
  end

let freeze ?(mailbox_drops = 0) ?(credit_stalls = 0) ?(alpha_raises = 0)
    ?(alpha_decays = 0) c : Stats.faults =
  {
    Stats.drops = c.n_drops;
    dups_injected = c.n_dups_injected;
    dups_suppressed = c.n_dups_suppressed;
    delays = c.n_delays;
    reorders = c.n_reorders;
    retransmits = c.n_retransmits;
    acks = c.n_acks;
    crashes = c.n_crashes;
    recoveries = c.n_recoveries;
    replayed = c.n_replayed;
    checkpoints = c.n_checkpoints;
    restores = c.n_restores;
    mailbox_drops;
    credit_stalls;
    alpha_raises;
    alpha_decays;
  }

let pp ppf p =
  if is_none p then Format.fprintf ppf "no faults"
  else begin
    Format.fprintf ppf
      "seed=%d drop=%g dup=%g reorder=%g delay=%g(max %d)" p.seed p.drop
      p.dup p.reorder p.delay p.max_delay;
    List.iter
      (fun c ->
        Format.fprintf ppf " crash=%d@%d+%d" c.cr_pid c.cr_round c.cr_down)
      p.crashes;
    match p.checkpoint_every with
    | Some k -> Format.fprintf ppf " checkpoint=%d" k
    | None -> ()
  end
