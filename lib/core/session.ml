open Datalog

type result = {
  answers : Database.t;
  stats : Stats.t;
}

type outcome = {
  oc_added : (string * Tuple.t) list;
  oc_removed : (string * Tuple.t) list;
  oc_summary : Delta.summary;
}

exception Closed of string

type t = {
  runtime : string;
  apply_fn : Update_batch.t -> outcome;
  query_fn : string -> Tuple.t list;
  model_fn : unit -> Database.t;
  close_fn : unit -> result;
  mutable closed : bool;
}

let v ~runtime ~apply ~query ~model ~close =
  {
    runtime;
    apply_fn = apply;
    query_fn = query;
    model_fn = model;
    close_fn = close;
    closed = false;
  }

let runtime s = s.runtime
let check s = if s.closed then raise (Closed s.runtime)

let apply s batch =
  check s;
  s.apply_fn batch

let query s pred =
  check s;
  s.query_fn pred

let model s =
  check s;
  s.model_fn ()

let close s =
  check s;
  s.closed <- true;
  s.close_fn ()
