let src = Logs.Src.create "pardatalog.mailbox" ~doc:"Mailbox diagnostics"

module Log = (val Logs.src_log src : Logs.LOG)

type 'a t = {
  mutex : Mutex.t;
  nonempty : Condition.t;
  queue : 'a Queue.t;
  mutable closed : bool;
  mutable dropped : int;
}

let create () =
  {
    mutex = Mutex.create ();
    nonempty = Condition.create ();
    queue = Queue.create ();
    closed = false;
    dropped = 0;
  }

(* Called after unlock, with the drop count read under the mutex. *)
let log_drop n =
  Log.debug (fun m -> m "push on closed mailbox dropped (%d so far)" n)

let push mb x =
  Mutex.lock mb.mutex;
  if mb.closed then begin
    mb.dropped <- mb.dropped + 1;
    let n = mb.dropped in
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

let close mb =
  Mutex.lock mb.mutex;
  mb.closed <- true;
  Condition.broadcast mb.nonempty;
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

let dropped mb =
  Mutex.lock mb.mutex;
  let n = mb.dropped in
  Mutex.unlock mb.mutex;
  n
