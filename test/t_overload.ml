(* Overload robustness: credit-based backpressure, resource budgets,
   and the adaptive Section 6 retention dial.

   The tentpole property: for random (workload, capacity, high-water,
   fault-plan) configurations, an adaptive run — per-processor alpha
   moved by backlog feedback while the computation executes — pools to
   exactly the sequential answers on both runtimes (Theorem 4 holds per
   tuple under the Local policy, so any dial trajectory is sound), and
   with capacity K the observed peak in-flight per channel never
   exceeds K. The deterministic cases pin down the watchdog (deadline,
   store and outbox budgets are structured Overload outcomes carrying
   partial stats, never hangs) and the dial controller itself. *)

open Datalog
open Pardatalog
open Helpers

(* ------------------------------------------------------------------ *)
(* Random adaptive configurations                                      *)
(* ------------------------------------------------------------------ *)

type overload_cfg = {
  oc_capacity : int option;  (* per-channel credit *)
  oc_high_water : int;
  oc_alpha : int;  (* resting alpha, quarters *)
}

let overload_cfg_gen =
  QCheck.Gen.(
    let* oc_capacity =
      oneof [ return None; map (fun k -> Some k) (int_range 1 6) ]
    in
    let* oc_high_water = int_range 1 8 in
    let* oc_alpha = int_range 0 3 in
    return { oc_capacity; oc_high_water; oc_alpha })

let print_overload_cfg oc =
  Printf.sprintf "capacity=%s high_water=%d alpha=%d/4"
    (match oc.oc_capacity with
     | None -> "-"
     | Some k -> string_of_int k)
    oc.oc_high_water oc.oc_alpha

let adaptive_config_arb =
  QCheck.make
    ~print:(fun ((gs, n, seed, picks), oc, fc) ->
      Printf.sprintf "%s\nN=%d seed=%d picks=%s\n%s\n%s"
        gs.T_random_sirups.gs_source n seed
        (String.concat "," (List.map string_of_int picks))
        (print_overload_cfg oc) (T_fault.print_cfg fc))
    QCheck.Gen.(
      let* base = T_random_sirups.config_arb.QCheck.gen in
      let* oc = overload_cfg_gen in
      let* fc = T_fault.plan_cfg_gen in
      return (base, oc, fc))

let dial_of oc ~nprocs =
  Overload.dial
    ~alpha:(float_of_int oc.oc_alpha /. 4.0)
    ~high_water:oc.oc_high_water ~nprocs ()

(* The adaptive run pools to the sequential answers, and capacity K
   bounds the observed per-channel in-flight peak by K — under random
   fault plans, on whichever runtime the harness is instantiated
   with. *)
let prop_adaptive (module R : Runtime.S) ~count ~max_n =
  let module H = Harness (R) in
  QCheck.Test.make ~count
    ~name:
      (Printf.sprintf
         "adaptive runs = sequential; peak in-flight <= capacity (%s)" R.name)
    adaptive_config_arb
    (fun ((gs, n, seed, _), oc, fc) ->
      let n = min n max_n in
      let program = Parser.program_exn gs.T_random_sirups.gs_source in
      let dial = dial_of oc ~nprocs:n in
      match Strategy.adaptive_tradeoff ~seed ~nprocs:n ~dial program with
      | Error _ -> QCheck.assume_fail ()
      | Ok rw ->
        let edb = T_random_sirups.edb_for gs seed in
        let config =
          Run_config.(
            default
            |> with_fault (T_fault.plan_of fc ~nprocs:n)
            |> with_capacity oc.oc_capacity
            |> with_dial (Some dial)
            |> with_max_rounds 50_000)
        in
        let seq, _ = Seminaive.evaluate program edb in
        let r = H.run ~config rw ~edb in
        let peak = r.Sim_runtime.stats.Stats.peak_in_flight in
        Relation.equal (Database.get seq "t")
          (Database.get r.Sim_runtime.answers "t")
        && (match oc.oc_capacity with
            | None -> peak = 0
            | Some k -> peak <= k))

let prop_adaptive_sim =
  prop_adaptive (module Runtime.Sim) ~count:170 ~max_n:max_int

(* Same property on the true multicore runtime. *)
let prop_adaptive_domain =
  prop_adaptive (module Runtime.Domains) ~count:40 ~max_n:3

(* ------------------------------------------------------------------ *)
(* Deterministic backpressure cases                                    *)
(* ------------------------------------------------------------------ *)

let chain_edges n = List.init n (fun i -> (i, i + 1))

let example3_rw () =
  match Strategy.example3 ~seed:0 ~nprocs:2 ancestor with
  | Ok rw -> rw
  | Error msg -> Alcotest.fail msg

let backpressure_cases =
  [
    case "capacity 1 bounds in-flight and counts deferrals" (fun () ->
        let edges = chain_edges 12 in
        let rw = example3_rw () in
        let config = Run_config.(default |> with_capacity (Some 1)) in
        let r = Sim_runtime.run ~config rw ~edb:(edb_of_edges edges) in
        Alcotest.check relation_t "closure unchanged by backpressure"
          (relation_of_pairs (closure_pairs edges))
          (anc_relation r.Sim_runtime.answers);
        Alcotest.(check int) "peak in-flight is the credit" 1
          r.Sim_runtime.stats.Stats.peak_in_flight;
        Alcotest.(check bool) "senders actually stalled" true
          (r.Sim_runtime.stats.Stats.faults.Stats.credit_stalls > 0));
    case "unbounded runs leave the overload counters at zero" (fun () ->
        let r =
          Sim_runtime.run (example3_rw ())
            ~edb:(edb_of_edges (chain_edges 8))
        in
        Alcotest.(check int) "no peak tracked" 0
          r.Sim_runtime.stats.Stats.peak_in_flight;
        Alcotest.(check int) "no stalls" 0
          r.Sim_runtime.stats.Stats.faults.Stats.credit_stalls);
    case "capacity composes with the reliable-delivery layer" (fun () ->
        let edges = chain_edges 12 in
        let rw = example3_rw () in
        let plan =
          Fault.make ~seed:3 ~drop:0.3
            ~crashes:[ { Fault.cr_pid = 1; cr_round = 3; cr_down = 2 } ]
            ()
        in
        let config =
          Run_config.(
            default |> with_fault plan |> with_capacity (Some 2)
            |> with_max_rounds 50_000)
        in
        let r = Sim_runtime.run ~config rw ~edb:(edb_of_edges edges) in
        Alcotest.check relation_t "closure survives faults under credit"
          (relation_of_pairs (closure_pairs edges))
          (anc_relation r.Sim_runtime.answers);
        Alcotest.(check bool) "peak bounded by the credit" true
          (r.Sim_runtime.stats.Stats.peak_in_flight <= 2));
    case "capacity is incompatible with resend_all" (fun () ->
        Alcotest.(check bool) "invalid_arg" true
          (try
             ignore
               (Sim_runtime.run
                  ~config:
                    Run_config.(
                      default |> with_capacity (Some 1)
                      |> with_resend_all true)
                  (example3_rw ())
                  ~edb:(edb_of_edges (chain_edges 4)));
             false
           with Invalid_argument _ -> true));
  ]

(* ------------------------------------------------------------------ *)
(* Watchdog: every breach is a structured outcome with partial stats   *)
(* ------------------------------------------------------------------ *)

(* One outbox definition on both in-process runtimes: the driver's
   unrouted backlog plus the credit-deferred rows. *)
let outbox_case (module R : Runtime.S) =
  let module H = Harness (R) in
  case
    (Printf.sprintf "outbox budget fires under a stalled channel (%s)" R.name)
    (fun () ->
      let config =
        Run_config.(
          default |> with_capacity (Some 1)
          |> with_limits { Overload.no_limits with max_outbox_rows = Some 1 })
      in
      match
        H.run ~config (example3_rw ()) ~edb:(edb_of_edges (chain_edges 16))
      with
      | _ -> Alcotest.fail "expected Overload"
      | exception Overload.Overload
          { reason = Outbox_budget { limit; _ }; _ } ->
        Alcotest.(check int) "limit echoed" 1 limit
      | exception Overload.Overload _ ->
        Alcotest.fail "expected an Outbox_budget reason")

(* The deadline runs per drive: a session that idles past it between
   drives still applies its next batch. *)
let idle_session_case (module R : Runtime.S) =
  let module H = Harness (R) in
  case
    (Printf.sprintf "an idle session's next apply is within its deadline (%s)"
       R.name)
    (fun () ->
      let config =
        Run_config.(
          default
          |> with_limits { Overload.no_limits with deadline = Some 0.2 })
      in
      let s =
        H.open_session ~config (example3_rw ())
          ~edb:(edb_of_edges (chain_edges 6))
      in
      Unix.sleepf 0.3;
      let o =
        Session.apply s
          (Update_batch.of_list
             [ Delta.Batch.insert "par" (Tuple.of_ints [ 6; 7 ]) ])
      in
      Alcotest.(check bool) "the insert landed" true (o.Session.oc_added <> []);
      ignore (Session.close s))

let watchdog_cases =
  [
    case "deadline breach carries partial stats (sim)" (fun () ->
        let config =
          Run_config.(
            default
            |> with_limits { Overload.no_limits with deadline = Some 1e-9 })
        in
        match
          Sim_runtime.run ~config (example3_rw ())
            ~edb:(edb_of_edges (chain_edges 10))
        with
        | _ -> Alcotest.fail "expected Overload"
        | exception Overload.Overload
            { reason = Deadline { seconds; _ }; stats } ->
          Alcotest.(check (float 0.0)) "limit echoed" 1e-9 seconds;
          Alcotest.(check int) "stats cover both processors" 2
            stats.Stats.nprocs
        | exception Overload.Overload _ ->
          Alcotest.fail "expected a Deadline reason");
    case "store budget names the offending processor (sim)" (fun () ->
        let config =
          Run_config.(
            default
            |> with_limits
                 { Overload.no_limits with max_store_rows = Some 5 })
        in
        match
          Sim_runtime.run ~config (example3_rw ())
            ~edb:(edb_of_edges (chain_edges 10))
        with
        | _ -> Alcotest.fail "expected Overload"
        | exception Overload.Overload
            { reason = Store_budget { pid; rows; limit }; stats } ->
          Alcotest.(check int) "limit echoed" 5 limit;
          Alcotest.(check bool) "rows over budget" true (rows > 5);
          Alcotest.(check bool) "pid in range" true (pid >= 0 && pid < 2);
          Alcotest.(check bool) "work so far is observable" true
            (Array.exists
               (fun p -> p.Stats.firings > 0)
               stats.Stats.per_proc)
        | exception Overload.Overload _ ->
          Alcotest.fail "expected a Store_budget reason");
    case "deadline breach is structured on the domain runtime" (fun () ->
        let config =
          Run_config.(
            default
            |> with_limits { Overload.no_limits with deadline = Some 1e-9 })
        in
        match
          Domain_runtime.run ~config (example3_rw ())
            ~edb:(edb_of_edges (chain_edges 10))
        with
        | _ -> Alcotest.fail "expected Overload"
        | exception Overload.Overload { reason = Deadline _; stats } ->
          Alcotest.(check int) "partial stats assembled" 2
            stats.Stats.nprocs
        | exception Overload.Overload _ ->
          Alcotest.fail "expected a Deadline reason");
    case "store budget is structured on the domain runtime" (fun () ->
        let config =
          Run_config.(
            default
            |> with_limits
                 { Overload.no_limits with max_store_rows = Some 5 })
        in
        match
          Domain_runtime.run ~config (example3_rw ())
            ~edb:(edb_of_edges (chain_edges 10))
        with
        | _ -> Alcotest.fail "expected Overload"
        | exception Overload.Overload
            { reason = Store_budget { limit; _ }; _ } ->
          Alcotest.(check int) "limit echoed" 5 limit
        | exception Overload.Overload _ ->
          Alcotest.fail "expected a Store_budget reason");
    case "limits validation" (fun () ->
        Alcotest.(check bool) "negative deadline rejected" true
          (try
             Overload.validate
               { Overload.no_limits with deadline = Some (-1.0) };
             false
           with Invalid_argument _ -> true);
        Alcotest.(check bool) "zero store budget rejected" true
          (try
             Overload.validate
               { Overload.no_limits with max_store_rows = Some 0 };
             false
           with Invalid_argument _ -> true);
        Overload.validate Overload.no_limits;
        Alcotest.(check bool) "no_limits is none" true
          (Overload.is_none Overload.no_limits));
  ]

(* ------------------------------------------------------------------ *)
(* The dial controller                                                 *)
(* ------------------------------------------------------------------ *)

let dial_cases =
  [
    case "backlog feedback moves alpha between floor and 1" (fun () ->
        let d =
          Overload.dial ~alpha:0.5 ~step:0.25 ~low_water:1 ~high_water:4
            ~nprocs:2 ()
        in
        Alcotest.(check (float 0.0)) "resting" 0.5 (Overload.alpha d 0);
        Overload.observe d ~pid:0 ~backlog:4;
        Alcotest.(check (float 0.0)) "raised" 0.75 (Overload.alpha d 0);
        Overload.observe d ~pid:0 ~backlog:9;
        Alcotest.(check (float 0.0)) "capped at 1" 1.0 (Overload.alpha d 0);
        Overload.observe d ~pid:0 ~backlog:9;
        Alcotest.(check (float 0.0)) "stays at 1" 1.0 (Overload.alpha d 0);
        Alcotest.(check int) "two raises counted" 2 (Overload.raises d);
        Overload.observe d ~pid:0 ~backlog:2;
        Alcotest.(check (float 0.0)) "between waters: hold" 1.0
          (Overload.alpha d 0);
        Overload.observe d ~pid:0 ~backlog:1;
        Overload.observe d ~pid:0 ~backlog:0;
        Overload.observe d ~pid:0 ~backlog:0;
        Alcotest.(check (float 0.0)) "decays to the floor, not below" 0.5
          (Overload.alpha d 0);
        Alcotest.(check int) "two decays counted" 2 (Overload.decays d);
        Alcotest.(check (float 0.0)) "other processors untouched" 0.5
          (Overload.alpha d 1));
    case "dial validation" (fun () ->
        Alcotest.(check bool) "alpha out of range" true
          (try
             ignore (Overload.dial ~alpha:1.5 ~high_water:4 ~nprocs:1 ());
             false
           with Invalid_argument _ -> true);
        Alcotest.(check bool) "high_water must be positive" true
          (try
             ignore (Overload.dial ~high_water:0 ~nprocs:1 ());
             false
           with Invalid_argument _ -> true));
    case "adaptive degradation sheds messages under pressure" (fun () ->
        let edges = chain_edges 16 in
        let edb = edb_of_edges edges in
        let messages stats =
          Array.fold_left
            (fun acc row -> Array.fold_left ( + ) acc row)
            0 stats.Stats.channel_tuples
        in
        let static =
          match Strategy.tradeoff ~seed:0 ~nprocs:2 ~alpha:0.0 ancestor with
          | Ok rw -> Sim_runtime.run rw ~edb
          | Error msg -> Alcotest.fail msg
        in
        let dial = Overload.dial ~alpha:0.0 ~high_water:1 ~nprocs:2 () in
        let adaptive =
          match Strategy.adaptive_tradeoff ~seed:0 ~nprocs:2 ~dial ancestor with
          | Ok rw ->
            Sim_runtime.run
              ~config:
                Run_config.(
                  default |> with_capacity (Some 1)
                  |> with_dial (Some dial))
              rw ~edb
          | Error msg -> Alcotest.fail msg
        in
        Alcotest.check relation_t "same closure"
          (anc_relation static.Sim_runtime.answers)
          (anc_relation adaptive.Sim_runtime.answers);
        Alcotest.(check bool) "the dial actually engaged" true
          (adaptive.Sim_runtime.stats.Stats.faults.Stats.alpha_raises > 0);
        Alcotest.(check bool) "fewer messages than the static scheme" true
          (messages adaptive.Sim_runtime.stats
          <= messages static.Sim_runtime.stats));
  ]

(* ------------------------------------------------------------------ *)
(* Dial boundary properties                                            *)
(* ------------------------------------------------------------------ *)

(* Random controller parameters and observation trajectories. The
   boundary of interest is low_water = high_water (now legal): a single
   backlog value would satisfy both the raise and the decay condition,
   so the controller must be a declared no-op there instead of
   oscillating. *)
type dial_cfg = {
  dc_alpha : float;  (* resting alpha — also the decay floor *)
  dc_step : float;
  dc_low : int;
  dc_high : int;
  dc_nprocs : int;
  dc_obs : (int * int) list;  (* (pid, backlog) feed *)
}

let dial_cfg_gen =
  QCheck.Gen.(
    let* dc_alpha = oneofl [ 0.0; 0.25; 0.5; 0.75; 1.0 ] in
    let* dc_step = oneofl [ 0.1; 0.25; 0.5; 1.0 ] in
    let* dc_high = int_range 1 8 in
    let* dc_low = int_range 0 dc_high in
    let* dc_nprocs = int_range 1 4 in
    let* dc_obs =
      list_size (int_range 0 80)
        (pair (int_range 0 (dc_nprocs - 1)) (int_range 0 (2 * dc_high)))
    in
    return { dc_alpha; dc_step; dc_low; dc_high; dc_nprocs; dc_obs })

let dial_cfg_arb =
  QCheck.make dial_cfg_gen ~print:(fun c ->
      Printf.sprintf "alpha=%.2f step=%.2f low=%d high=%d nprocs=%d obs=[%s]"
        c.dc_alpha c.dc_step c.dc_low c.dc_high c.dc_nprocs
        (String.concat ";"
           (List.map (fun (p, b) -> Printf.sprintf "%d:%d" p b) c.dc_obs)))

let run_dial c =
  let d =
    Overload.dial ~alpha:c.dc_alpha ~step:c.dc_step ~low_water:c.dc_low
      ~high_water:c.dc_high ~nprocs:c.dc_nprocs ()
  in
  List.iter (fun (pid, backlog) -> Overload.observe d ~pid ~backlog) c.dc_obs;
  d

let prop_dial_bounds =
  QCheck.Test.make ~count:300
    ~name:"dial alpha never leaves [resting, 1] on any trajectory"
    dial_cfg_arb
    (fun c ->
      let d = run_dial c in
      List.for_all
        (fun pid ->
          let a = Overload.alpha d pid in
          a >= c.dc_alpha -. 1e-9 && a <= 1.0 +. 1e-9)
        (List.init c.dc_nprocs Fun.id))

let prop_dial_noop =
  QCheck.Test.make ~count:150
    ~name:"dial with low_water = high_water is a no-op"
    dial_cfg_arb
    (fun c ->
      let c = { c with dc_low = c.dc_high } in
      let d = run_dial c in
      List.for_all
        (fun pid -> Overload.alpha d pid = c.dc_alpha)
        (List.init c.dc_nprocs Fun.id)
      && Overload.raises d = 0
      && Overload.decays d = 0)

let suites =
  [
    ("overload-backpressure", backpressure_cases);
    ( "overload-watchdog",
      watchdog_cases
      @ List.map outbox_case Runtime.all
      @ List.map idle_session_case Runtime.all );
    ("overload-dial", dial_cases);
    ( "overload-props",
      List.map QCheck_alcotest.to_alcotest
        [
          prop_adaptive_sim; prop_adaptive_domain; prop_dial_bounds;
          prop_dial_noop;
        ] );
  ]
