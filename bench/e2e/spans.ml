(* The bench-side span recorder of the traced pass. Spans are taken
   around the harness's calls into each layer's public functions (the
   library itself carries no spans of this kind), kept in memory, and
   written out once at exit: as Chrome trace_event JSON for Perfetto,
   and as per-layer self times. A span's layer is its name up to the
   first '.', e.g. [engine.step] belongs to [engine]. *)

type span = {
  id : int;
  name : string;
  run : string;  (* the cell, or the protocol id of a served request *)
  parent : int;  (* -1 for a root span *)
  tid : int;
  start : int64;
  stop : int64;
  args : (string * float) list;
}

type t = {
  enabled : bool;
  lock : Mutex.t;
  mutable next : int;
  mutable spans : span list;
  stacks : (int, (int * string) list) Hashtbl.t;  (* thread -> open spans *)
  origin : int64;
}

let make enabled =
  {
    enabled;
    lock = Mutex.create ();
    next = 0;
    spans = [];
    stacks = Hashtbl.create 8;
    origin = Measure.now ();
  }

let off = make false
let create () = make true

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* [span t name f] runs [f ()] and, when [t] is enabled, records a span
   around it; [args] turns the result into counts attached to the span.
   With [off] it is exactly [f ()]. *)
let span t ?run ?(args = fun _ -> []) name f =
  if not t.enabled then f ()
  else begin
    let tid = Thread.id (Thread.self ()) in
    let id, parent, run =
      locked t (fun () ->
          let id = t.next in
          t.next <- id + 1;
          let stack = Option.value (Hashtbl.find_opt t.stacks tid) ~default:[] in
          let parent, parent_run =
            match stack with (p, r) :: _ -> (p, r) | [] -> (-1, "")
          in
          let run = Option.value run ~default:parent_run in
          Hashtbl.replace t.stacks tid ((id, run) :: stack);
          (id, parent, run))
    in
    let start = Measure.now () in
    let finish result_args =
      let stop = Measure.now () in
      locked t (fun () ->
          (match Hashtbl.find_opt t.stacks tid with
           | Some (_ :: rest) -> Hashtbl.replace t.stacks tid rest
           | _ -> ());
          t.spans <-
            { id; name; run; parent; tid; start; stop; args = result_args }
            :: t.spans)
    in
    match f () with
    | r ->
      finish (args r);
      r
    | exception e ->
      finish [ ("raised", 1.) ];
      raise e
  end

let spans t = List.rev t.spans

let seconds s = Int64.to_float (Int64.sub s.stop s.start) /. 1e9

let named t name = List.filter (fun s -> s.name = name) (spans t)

let layer_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* Self time: a span's duration minus the part its children cover.
   Children of one span run on the span's own thread, one after the
   other, so their durations simply add. *)
let self_seconds t =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (seconds s +. Option.value (Hashtbl.find_opt child s.parent) ~default:0.))
    (spans t);
  List.map
    (fun s ->
      (s, Float.max 0. (seconds s -. Option.value (Hashtbl.find_opt child s.id) ~default:0.)))
    (spans t)

(* Per layer: (layer, span count, total self seconds), sorted by
   descending self time. *)
let layers t =
  let acc = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      let l = layer_of s.name in
      let n, total = Option.value (Hashtbl.find_opt acc l) ~default:(0, 0.) in
      Hashtbl.replace acc l (n + 1, total +. self))
    (self_seconds t);
  Hashtbl.fold (fun l (n, self) xs -> (l, n, self) :: xs) acc []
  |> List.sort (fun (_, _, a) (_, _, b) -> compare b a)

let check_monotone t = List.for_all (fun s -> Int64.compare s.stop s.start >= 0) (spans t)

let to_chrome t =
  let us x = Int64.to_float (Int64.sub x t.origin) /. 1e3 in
  let tids = Hashtbl.create 8 in
  let lane tid =
    match Hashtbl.find_opt tids tid with
    | Some l -> l
    | None ->
      let l = Hashtbl.length tids in
      Hashtbl.add tids tid l;
      l
  in
  let event s =
    Json.Obj
      [
        ("name", Json.Str s.name);
        ("cat", Json.Str (layer_of s.name));
        ("ph", Json.Str "X");
        ("ts", Json.Num (us s.start));
        ("dur", Json.Num (Int64.to_float (Int64.sub s.stop s.start) /. 1e3));
        ("pid", Json.Num 1.);
        ("tid", Json.Num (float_of_int (lane s.tid)));
        ( "args",
          Json.Obj
            (("run", Json.Str s.run) :: ("span", Json.Num (float_of_int s.id))
            :: ("parent", Json.Num (float_of_int s.parent))
            :: List.map (fun (k, v) -> (k, Json.Num v)) s.args) );
      ]
  in
  Json.Obj
    [
      ("traceEvents", Json.Arr (List.map event (spans t)));
      ("displayTimeUnit", Json.Str "ms");
    ]
