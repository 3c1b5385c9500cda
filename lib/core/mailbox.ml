let src = Logs.Src.create "pardatalog.mailbox" ~doc:"Mailbox diagnostics"

module Log = (val Logs.src_log src : Logs.LOG)

type 'a t = {
  mutex : Mutex.t;
  nonempty : Condition.t;
  not_full : Condition.t;
  queue : 'a Queue.t;
  capacity : int option;
  mutable closed : bool;
  mutable dropped : int;
}

let create ?capacity () =
  (match capacity with
   | Some c when c < 1 -> invalid_arg "Mailbox.create: capacity must be >= 1"
   | _ -> ());
  {
    mutex = Mutex.create ();
    nonempty = Condition.create ();
    not_full = Condition.create ();
    queue = Queue.create ();
    capacity;
    closed = false;
    dropped = 0;
  }

let full mb =
  match mb.capacity with
  | None -> false
  | Some c -> Queue.length mb.queue >= c

(* Called with the mutex held; the log call happens after unlock. *)
let note_drop mb =
  mb.dropped <- mb.dropped + 1;
  mb.dropped

let log_drop n =
  Log.debug (fun m -> m "push on closed mailbox dropped (%d so far)" n)

let push mb x =
  Mutex.lock mb.mutex;
  if mb.closed then begin
    let n = note_drop mb in
    Mutex.unlock mb.mutex;
    log_drop n
  end
  else begin
    Queue.add x mb.queue;
    Condition.signal mb.nonempty;
    Mutex.unlock mb.mutex
  end

let push_all mb xs =
  if xs <> [] then begin
    Mutex.lock mb.mutex;
    if mb.closed then begin
      mb.dropped <- mb.dropped + List.length xs;
      let n = mb.dropped in
      Mutex.unlock mb.mutex;
      log_drop n
    end
    else begin
      List.iter (fun x -> Queue.add x mb.queue) xs;
      Condition.signal mb.nonempty;
      Mutex.unlock mb.mutex
    end
  end

let try_push mb x =
  Mutex.lock mb.mutex;
  if mb.closed then begin
    Mutex.unlock mb.mutex;
    `Closed
  end
  else if full mb then begin
    Mutex.unlock mb.mutex;
    `Full
  end
  else begin
    Queue.add x mb.queue;
    Condition.signal mb.nonempty;
    Mutex.unlock mb.mutex;
    `Ok
  end

let push_blocking mb x =
  Mutex.lock mb.mutex;
  while full mb && not mb.closed do
    Condition.wait mb.not_full mb.mutex
  done;
  if mb.closed then begin
    let n = note_drop mb in
    Mutex.unlock mb.mutex;
    log_drop n;
    false
  end
  else begin
    Queue.add x mb.queue;
    Condition.signal mb.nonempty;
    Mutex.unlock mb.mutex;
    true
  end

let close mb =
  Mutex.lock mb.mutex;
  mb.closed <- true;
  Condition.broadcast mb.nonempty;
  Condition.broadcast mb.not_full;
  Mutex.unlock mb.mutex

let is_closed mb =
  Mutex.lock mb.mutex;
  let c = mb.closed in
  Mutex.unlock mb.mutex;
  c

let drain_locked mb =
  let acc = ref [] in
  while not (Queue.is_empty mb.queue) do
    acc := Queue.pop mb.queue :: !acc
  done;
  if !acc <> [] && mb.capacity <> None then Condition.broadcast mb.not_full;
  List.rev !acc

let drain mb =
  Mutex.lock mb.mutex;
  let xs = drain_locked mb in
  Mutex.unlock mb.mutex;
  xs

let drain_blocking mb =
  Mutex.lock mb.mutex;
  while Queue.is_empty mb.queue && not mb.closed do
    Condition.wait mb.nonempty mb.mutex
  done;
  let xs = drain_locked mb in
  Mutex.unlock mb.mutex;
  xs

(* [Condition] has no timed wait, so the timeout is a short-period poll:
   coarse but portable, and only used when a fault plan or deadline is
   active. *)
let drain_timeout mb ~seconds =
  let deadline = Obs.Clock.now () +. seconds in
  let rec go () =
    Mutex.lock mb.mutex;
    if (not (Queue.is_empty mb.queue)) || mb.closed then begin
      let xs = drain_locked mb in
      Mutex.unlock mb.mutex;
      xs
    end
    else begin
      Mutex.unlock mb.mutex;
      if Obs.Clock.now () >= deadline then []
      else begin
        Unix.sleepf 0.0005;
        go ()
      end
    end
  in
  go ()

let is_empty mb =
  Mutex.lock mb.mutex;
  let e = Queue.is_empty mb.queue in
  Mutex.unlock mb.mutex;
  e

let length mb =
  Mutex.lock mb.mutex;
  let n = Queue.length mb.queue in
  Mutex.unlock mb.mutex;
  n

let capacity mb = mb.capacity

let dropped mb =
  Mutex.lock mb.mutex;
  let n = mb.dropped in
  Mutex.unlock mb.mutex;
  n
