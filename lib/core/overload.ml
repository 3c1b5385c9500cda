open Datalog

type reason =
  | Deadline of { seconds : float; elapsed : float; round : int }
  | Store_budget of { pid : Pid.t; rows : int; limit : int }
  | Outbox_budget of { pid : Pid.t; rows : int; limit : int }
  | Round_budget of { round : int }

type limits = {
  deadline : float option;
  max_store_rows : int option;
  max_outbox_rows : int option;
}

let no_limits =
  { deadline = None; max_store_rows = None; max_outbox_rows = None }

let is_none l =
  l.deadline = None && l.max_store_rows = None && l.max_outbox_rows = None

let validate l =
  (match l.deadline with
   | Some s when s <= 0.0 ->
     invalid_arg "Overload: deadline must be positive"
   | _ -> ());
  (match l.max_store_rows with
   | Some n when n < 1 ->
     invalid_arg "Overload: max-store must be >= 1"
   | _ -> ());
  match l.max_outbox_rows with
  | Some n when n < 1 -> invalid_arg "Overload: max-outbox must be >= 1"
  | _ -> ()

exception Overload of { reason : reason; stats : Stats.t }

let reason_kind = function
  | Deadline _ -> "deadline"
  | Store_budget _ -> "store_budget"
  | Outbox_budget _ -> "outbox_budget"
  | Round_budget _ -> "round_budget"

let pp_reason ppf = function
  | Deadline { seconds; elapsed; round } ->
    Format.fprintf ppf
      "deadline of %gs exceeded after %.3fs (round %d)" seconds elapsed
      round
  | Store_budget { pid; rows; limit } ->
    Format.fprintf ppf
      "processor %d tuple store holds %d rows (budget %d)" pid rows limit
  | Outbox_budget { pid; rows; limit } ->
    Format.fprintf ppf
      "processor %d outbox backlog is %d rows (budget %d)" pid rows limit
  | Round_budget { round } ->
    Format.fprintf ppf "round budget exceeded after %d rounds" round

(* Store accounting: rows are exact; bytes are the word-size estimate
   [rows * arity * 8] summed over relations — enough to compare
   processors, not an allocator census. *)
let db_rows = Database.total_tuples

let db_bytes db =
  List.fold_left
    (fun acc pred ->
      match Database.find db pred with
      | None -> acc
      | Some r -> acc + (Relation.cardinal r * Relation.arity r * 8))
    0 (Database.predicates db)

type dial = {
  d_alphas : float array;
  d_floor : float;
  d_step : float;
  d_high : int;
  d_low : int;
  mutable d_raises : int;
  mutable d_decays : int;
}

let dial ?(alpha = 0.0) ?(step = 0.25) ?low_water ~high_water ~nprocs () =
  if alpha < 0.0 || alpha > 1.0 then
    invalid_arg "Overload.dial: alpha must be in [0,1]";
  if step <= 0.0 then invalid_arg "Overload.dial: step must be positive";
  if high_water < 1 then
    invalid_arg "Overload.dial: high_water must be >= 1";
  if nprocs < 1 then invalid_arg "Overload.dial: nprocs must be >= 1";
  let low =
    match low_water with
    | Some l ->
      if l < 0 || l > high_water then
        invalid_arg "Overload.dial: low_water must be in [0, high_water]";
      l
    | None -> high_water / 4
  in
  {
    d_alphas = Array.make nprocs alpha;
    d_floor = alpha;
    d_step = step;
    d_high = high_water;
    d_low = low;
    d_raises = 0;
    d_decays = 0;
  }

let alpha d pid = d.d_alphas.(pid)
let raises d = d.d_raises
let decays d = d.d_decays

(* With [low = high] a single backlog value would satisfy both the
   raise and the decay condition, so the controller would chatter
   between them on a steady input. That degenerate configuration is
   accepted (it is the natural "off" point of a swept parameter) and
   defined as a no-op: alpha stays at its resting value. *)
let observe d ~pid ~backlog =
  if d.d_high <> d.d_low then begin
    let a = d.d_alphas.(pid) in
    if backlog >= d.d_high then begin
      if a < 1.0 then begin
        d.d_alphas.(pid) <- min 1.0 (a +. d.d_step);
        d.d_raises <- d.d_raises + 1
      end
    end
    else if backlog <= d.d_low && a > d.d_floor then begin
      d.d_alphas.(pid) <- max d.d_floor (a -. d.d_step);
      d.d_decays <- d.d_decays + 1
    end
  end
