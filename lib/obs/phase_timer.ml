type cell = {
  mutable count : int;
  mutable total_ns : int;
  mutable max_ns : int;
}

type t = {
  cells : (string, cell) Hashtbl.t;
  metrics : Metrics.t;
}

let create ?(metrics = Metrics.none) () =
  { cells = Hashtbl.create 8; metrics }

let cell_of t name =
  match Hashtbl.find_opt t.cells name with
  | Some c -> c
  | None ->
    let c = { count = 0; total_ns = 0; max_ns = 0 } in
    Hashtbl.add t.cells name c;
    c

let record t name ns =
  let c = cell_of t name in
  c.count <- c.count + 1;
  c.total_ns <- c.total_ns + ns;
  if ns > c.max_ns then c.max_ns <- ns;
  if Metrics.enabled t.metrics then
    Metrics.observe t.metrics ("phase_ns." ^ name) (float_of_int ns)

let time t name f =
  let start = Clock.now_ns () in
  Fun.protect ~finally:(fun () -> record t name (Clock.now_ns () - start)) f

let totals t =
  Hashtbl.fold (fun name c acc -> (name, c.total_ns) :: acc) t.cells []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let stats t name =
  match Hashtbl.find_opt t.cells name with
  | Some c -> Some (c.count, c.total_ns, c.max_ns)
  | None -> None

(* Summing assoc lists is all the domain runtime needs to pool its
   per-worker timers; keeping it here keeps the representation of
   [totals] private to this module's callers. *)
let merge_totals a b =
  let tbl = Hashtbl.create 8 in
  let bump (name, ns) =
    Hashtbl.replace tbl name
      (ns + Option.value ~default:0 (Hashtbl.find_opt tbl name))
  in
  List.iter bump a;
  List.iter bump b;
  Hashtbl.fold (fun name ns acc -> (name, ns) :: acc) tbl []
  |> List.sort (fun (x, _) (y, _) -> String.compare x y)
