(* The serving half: a datalogd process holding the workload's model,
   driven over its socket protocol by a closed-loop load generator.

   One process, two client threads, two connections; each client sends
   its next request only after the previous reply, with no think time.
   The load runs in bursts of whole cycles.
   Each client is its own tenant and repeats a seeded 20-operation
   cycle: 11 live reads, 8 writes and 1 from-scratch query. The writes
   are 4 UPDATE/RETRACT pairs toggling an edge from a fresh per-client
   source into the model, so a cycle leaves the model as it found it
   and the expected answer of every request is known. *)

open Serve

type daemon = { pid : int; sock : string }

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

(* Program and facts files, written once per run into [dir]. *)
let stage ~dir (p : Inputs.prepared) =
  write_file (Filename.concat dir "anc.dl") Inputs.program_text;
  write_file (Filename.concat dir "facts.dl") p.facts_text

let spawn ~datalogd ~dir ~tag =
  let sock = Filename.concat dir (tag ^ ".sock") in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let argv =
    [|
      datalogd; "--socket"; sock; "--load"; "anc=" ^ Filename.concat dir "anc.dl";
      "--facts"; "anc=" ^ Filename.concat dir "facts.dl"; "-j"; string_of_int Batch.nprocs;
    |]
  in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close devnull)
      (fun () -> Unix.create_process datalogd argv devnull devnull devnull)
  in
  { pid; sock }

let peak_rss_mb d = Measure.peak_rss_mb (string_of_int d.pid)

(* SIGTERM (the daemon drains and exits 0), escalating to SIGKILL if it
   has not exited within 10 s; always reaped. *)
let stop d =
  let signal s = try Unix.kill d.pid s with Unix.Unix_error _ -> () in
  signal Sys.sigterm;
  let t0 = Measure.now () in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ ->
      if Measure.seconds_since t0 > 10. then begin
        signal Sys.sigkill;
        ignore (Unix.waitpid [] d.pid)
      end
      else begin
        Unix.sleepf 0.01;
        wait ()
      end
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ()

let connect d =
  match Client.connect ~attempts:2000 ~delay_ms:5 (Server.Unix_sock d.sock) with
  | Client.Conn c -> c
  | Client.Conn_busy { reason; _ } -> failwith ("datalogd refused the connection: " ^ reason)
  | Client.Conn_error e -> failwith ("cannot connect to datalogd: " ^ e)

let base_rows (p : Inputs.prepared) = Datalog.Relation.cardinal p.model

(* Spawn a daemon and wait for its first live reply carrying the whole
   model: LOAD, FACTS and the session open all happen before it. The
   daemon binds its socket before preloading, so early replies may name
   an unknown program or an empty dataset; those are retried. Returns
   the daemon, the connection and the set-up seconds. *)
let start ~datalogd ~dir ~tag p =
  let t0 = Measure.now () in
  let d = spawn ~datalogd ~dir ~tag in
  let rec first c n =
    if Measure.seconds_since t0 > 60. then failwith "datalogd never served the model";
    let line = Printf.sprintf "QUERY id=%s-%d prog=anc goal=anc live=true" tag n in
    match Client.request c line with
    | Ok { Client.head = Protocol.Result_head { partial = false; rows; _ }; _ }
      when rows = base_rows p ->
      ()
    | Ok _ ->
      Unix.sleepf 0.002;
      first c (n + 1)
    | Error e -> failwith ("datalogd: " ^ e)
  in
  match
    let c = connect d in
    (try first c 0
     with e ->
       Client.close c;
       raise e);
    c
  with
  | c -> (d, c, Measure.seconds_since t0)
  | exception e ->
    stop d;
    raise e

type kind = Live | Update | Retract | Full

let kind_name = function
  | Live -> "live_query"
  | Update -> "update"
  | Retract -> "retract"
  | Full -> "full_query"

type sample = { kind : kind; ms : float; ok : bool }

(* The seeded cycle: 11 live reads, 8 writes, 1 full query, in an order
   drawn from the seed. The second client runs the same cycle half a
   cycle out of phase, so the two from-scratch queries do not line up.
   Each client's writes alternate UPDATE, RETRACT, so every pair toggles
   its edge on and then off. *)
let cycle ~seed ~client =
  let rng = Workload.Rng.create ~seed in
  let slots = Array.concat [ Array.make 11 `L; Array.make 8 `W; [| `F |] ] in
  Workload.Rng.shuffle rng slots;
  let n = Array.length slots in
  let writes = ref 0 in
  Array.init n (fun i ->
      match slots.((i + (client * n / 2)) mod n) with
      | `L -> Live
      | `F -> Full
      | `W ->
        incr writes;
        if !writes mod 2 = 1 then Update else Retract)

(* A client: its own connection and tenant, kept open across bursts. *)
type client = {
  index : int;
  conn : Client.t;
  ops : kind array;
  fact : string;  (* the edge this client toggles *)
  mutable sent : int;  (* request ids stay unique per tenant *)
  mutable own : int;  (* 1 while the edge is in *)
}

let open_clients d (p : Inputs.prepared) ~seed =
  Array.init 2 (fun index ->
      let conn = connect d in
      (match Client.request conn (Printf.sprintf "HELLO tenant=c%d" index) with
       | Ok { Client.head = Protocol.Okay _; _ } -> ()
       | _ -> failwith "datalogd did not acknowledge HELLO");
      {
        index;
        conn;
        ops = cycle ~seed ~client:index;
        fact = Printf.sprintf "par(%d,%d).\n" (Inputs.fresh_source p ~client:index) p.target;
        sent = 0;
        own = 0;
      })

let with_clients d p ~seed f =
  let clients = open_clients d p ~seed in
  Fun.protect ~finally:(fun () -> Array.iter (fun c -> Client.close c.conn) clients) (fun () -> f clients)

(* One request, timed from send to complete reply, and checked. *)
let request ~spans (p : Inputs.prepared) cl kind =
  cl.sent <- cl.sent + 1;
  let id = Printf.sprintf "c%d-%d" cl.index cl.sent in
  let line, payload =
    match kind with
    | Live -> (Printf.sprintf "QUERY id=%s prog=anc goal=anc live=true" id, None)
    | Full -> (Printf.sprintf "QUERY id=%s prog=anc goal=anc" id, None)
    | Update -> (Printf.sprintf "UPDATE id=%s prog=anc" id, Some cl.fact)
    | Retract -> (Printf.sprintf "RETRACT id=%s prog=anc" id, Some cl.fact)
  in
  let t0 = Measure.now () in
  let reply =
    Spans.span spans ~run:id ("serve." ^ kind_name kind) (fun () ->
        Client.request cl.conn ?payload line)
  in
  let ms = Measure.seconds_since t0 *. 1000. in
  let kv_int kv k = Option.bind (Protocol.find_kv kv k) int_of_string_opt |> Option.value ~default:(-1) in
  let base = base_rows p and step = p.toggle_added - 1 in
  let problem =
    match (kind, reply) with
    | (Live | Full), Ok { Client.head = Protocol.Result_head { partial = false; rows; _ }; _ } ->
      (* The other client's edge may or may not be in. *)
      let extra = rows - base - (step * cl.own) in
      if extra = 0 || extra = step then None else Some (Printf.sprintf "%s: %d rows" id rows)
    | Update, Ok { Client.head = Protocol.Okay { op = "update"; kv }; _ } ->
      cl.own <- 1;
      if kv_int kv "added" = p.toggle_added && kv_int kv "removed" = 0 then None
      else Some (id ^ ": wrong update counts")
    | Retract, Ok { Client.head = Protocol.Okay { op = "retract"; kv }; _ } ->
      cl.own <- 0;
      if kv_int kv "added" = 0 && kv_int kv "removed" = p.toggle_added then None
      else Some (id ^ ": wrong retract counts")
    | _, Ok r -> Some (id ^ ": unexpected reply " ^ String.concat " | " r.Client.raw)
    | _, Error e -> Some (id ^ ": " ^ e)
  in
  ({ kind; ms; ok = problem = None }, problem)

type burst = {
  samples : sample list;
  wall : float;
  failures : string list;  (* one per failed request or broken client *)
}

(* Both clients run [cycles] whole cycles concurrently, each in its own
   thread, in a closed loop. Whole cycles leave every toggled edge off
   again. *)
let burst ?(spans = Spans.off) p clients ~cycles =
  let t0 = Measure.now () in
  let outs = Array.map (fun _ -> ref ([], [])) clients in
  let run cl out =
    let samples = ref [] and failures = ref [] in
    (try
       for _ = 1 to cycles do
         Array.iter
           (fun kind ->
             let sample, problem = request ~spans p cl kind in
             samples := sample :: !samples;
             Option.iter (fun why -> failures := why :: !failures) problem)
           cl.ops
       done
     with e -> failures := Printexc.to_string e :: !failures);
    out := (!samples, !failures)
  in
  let threads = Array.map2 (fun cl out -> Thread.create (run cl) out) clients outs in
  Array.iter Thread.join threads;
  let outs = Array.to_list outs in
  {
    samples = List.concat_map (fun o -> fst !o) outs;
    wall = Measure.seconds_since t0;
    failures = List.concat_map (fun o -> snd !o) outs;
  }

let latencies bursts kinds =
  List.concat_map
    (fun b -> List.filter_map (fun s -> if s.ok && List.mem s.kind kinds then Some s.ms else None) b.samples)
    bursts

(* Completed requests per second over all bursts; q1 and q3 come from
   resampling the bursts. *)
let throughput ~rng bursts =
  let ok b = float_of_int (List.length (List.filter (fun s -> s.ok) b.samples)) in
  let sum f bs = List.fold_left (fun acc b -> acc +. f b) 0. bs in
  Measure.bootstrap ~rng (fun bs -> sum ok bs /. sum (fun b -> b.wall) bs) bursts

(* After the load: the full answer must equal the sequential model, and
   STATS gives the server-side counters. *)
let final_check c (p : Inputs.prepared) =
  let rows =
    match Client.request c "QUERY id=final prog=anc goal=anc rows=true" with
    | Ok { Client.head = Protocol.Result_head { partial = false; _ }; rows; _ } ->
      Some (List.sort compare rows)
    | _ -> None
  in
  let counters =
    match Client.request c "STATS" with
    | Ok { Client.head = Protocol.Stats_reply body; _ } -> (
      try Json.to_assoc (Json.member "counters" (Json.parse body)) with Json.Error _ -> [])
    | _ -> []
  in
  (rows = Some (Inputs.model_rows p), List.map (fun (k, v) -> (k, Json.to_num v)) counters)
