type phase =
  | Sending
  | Retransmission
  | Delivery
  | Receiving
  | Processing
  | Checkpointing
  | Termination_test

let phase_name = function
  | Sending -> "sending"
  | Retransmission -> "retransmission"
  | Delivery -> "delivery"
  | Receiving -> "receiving"
  | Processing -> "processing"
  | Checkpointing -> "checkpointing"
  | Termination_test -> "termination-test"

type event = {
  ev_name : string;
  ev_cat : string; (* "phase" or "instant" *)
  ev_ph : char; (* 'X' or 'i' *)
  ev_pid : int;
  ev_round : int;
  ev_ts : float; (* microseconds since sink creation *)
  ev_dur : float; (* microseconds; 0 for instants *)
}

type t = {
  on : bool;
  mu : Mutex.t;
  t0 : float;
  mutable events : event list; (* newest first *)
  mutable count : int;
}

let none = { on = false; mu = Mutex.create (); t0 = 0.; events = []; count = 0 }

let create () =
  { on = true; mu = Mutex.create (); t0 = Clock.now (); events = []; count = 0 }

let enabled t = t.on
let transport_pid = -1

let add t ev =
  Mutex.lock t.mu;
  t.events <- ev :: t.events;
  t.count <- t.count + 1;
  Mutex.unlock t.mu

let now_us t = (Clock.now () -. t.t0) *. 1e6

let span t ~pid ~round phase f =
  if not t.on then f ()
  else begin
    let start = now_us t in
    Fun.protect
      ~finally:(fun () ->
        let stop = now_us t in
        add t
          {
            ev_name = phase_name phase;
            ev_cat = "phase";
            ev_ph = 'X';
            ev_pid = pid;
            ev_round = round;
            ev_ts = start;
            ev_dur = stop -. start;
          })
      f
  end

let instant t ~pid ~round name =
  if t.on then
    add t
      {
        ev_name = name;
        ev_cat = "instant";
        ev_ph = 'i';
        ev_pid = pid;
        ev_round = round;
        ev_ts = now_us t;
        ev_dur = 0.;
      }

let event_count t = t.count

let covered t ~pid ~round phase =
  let name = phase_name phase in
  Mutex.lock t.mu;
  let r =
    List.exists
      (fun ev -> ev.ev_pid = pid && ev.ev_round = round && ev.ev_name = name)
      t.events
  in
  Mutex.unlock t.mu;
  r

let instant_count t ~name =
  Mutex.lock t.mu;
  let r =
    List.fold_left
      (fun acc ev -> if ev.ev_ph = 'i' && ev.ev_name = name then acc + 1 else acc)
      0 t.events
  in
  Mutex.unlock t.mu;
  r

let to_chrome_json t =
  Mutex.lock t.mu;
  let events = List.rev t.events in
  Mutex.unlock t.mu;
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  let first = ref true in
  let emit s =
    if !first then first := false else Buffer.add_string buf ",\n";
    Buffer.add_string buf s
  in
  (* process_name metadata, one per pid seen *)
  let pids = List.sort_uniq compare (List.map (fun ev -> ev.ev_pid) events) in
  List.iter
    (fun pid ->
      let label =
        if pid = transport_pid then "transport" else Printf.sprintf "processor %d" pid
      in
      emit
        (Printf.sprintf
           "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":\"%s\"}}"
           pid (Json.escape label)))
    pids;
  List.iter
    (fun ev ->
      match ev.ev_ph with
      | 'X' ->
          emit
            (Printf.sprintf
               "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\"tid\":0,\"args\":{\"round\":%d}}"
               (Json.escape ev.ev_name) ev.ev_cat ev.ev_ts ev.ev_dur ev.ev_pid ev.ev_round)
      | _ ->
          emit
            (Printf.sprintf
               "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\",\"s\":\"p\",\"ts\":%.3f,\"pid\":%d,\"tid\":0,\"args\":{\"round\":%d}}"
               (Json.escape ev.ev_name) ev.ev_cat ev.ev_ts ev.ev_pid ev.ev_round))
    events;
  Buffer.add_string buf "],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents buf

let write t path =
  let oc = open_out path in
  output_string oc (to_chrome_json t);
  close_out oc
