type t = {
  resend_all : bool;
  pushdown : bool;
  replicate_base : bool;
  max_rounds : int;
  network : Netgraph.t option;
  fault : Fault.plan;
  capacity : int option;
  limits : Overload.limits;
  dial : Overload.dial option;
  domains : int option;
  obs : Obs.sinks;
  plan : Plan.t option;
}

let default =
  {
    resend_all = false;
    pushdown = true;
    replicate_base = false;
    max_rounds = 1_000_000;
    network = None;
    fault = Fault.none;
    capacity = None;
    limits = Overload.no_limits;
    dial = None;
    domains = None;
    obs = Obs.disabled;
    plan = None;
  }

let with_resend_all resend_all t = { t with resend_all }
let with_pushdown pushdown t = { t with pushdown }
let with_replicate_base replicate_base t = { t with replicate_base }
let with_max_rounds max_rounds t = { t with max_rounds }
let with_network network t = { t with network }
let with_fault fault t = { t with fault }
let with_capacity capacity t = { t with capacity }
let with_limits limits t = { t with limits }
let with_deadline deadline t = { t with limits = { t.limits with Overload.deadline } }

let with_max_store_rows max_store_rows t =
  { t with limits = { t.limits with Overload.max_store_rows } }
let with_dial dial t = { t with dial }
let with_domains domains t = { t with domains }
let with_obs obs t = { t with obs }
let with_trace trace t = { t with obs = { t.obs with Obs.trace } }
let with_metrics metrics t = { t with obs = { t.obs with Obs.metrics } }
let with_plan plan t = { t with plan }
let of_plan (p : Plan.t) = { default with plan = Some p }
