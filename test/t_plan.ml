(* Property tests of the static planner and its plan certificates.

   Every plan the planner synthesizes must (a) re-verify against the
   program it was issued for — including after a JSON round-trip — and
   (b) produce parallel results equal to sequential evaluation on both
   runtimes, under random fault plans, with the certificate itself
   riding in the Run_config so the runtimes' startup validation is on
   the hot path of every run. Stale certificates must be rejected with
   the stable E201/E202 codes, both by Plan.verify and by the runtimes
   themselves. *)

open Datalog
open Pardatalog
open Helpers

let program_of gs = Parser.program_exn gs.T_random_sirups.gs_source

let plan_for ?profile program ~nprocs ~seed =
  (Check.Planner.suggest ?profile ~nprocs ~seed program).Check.Planner.plan

(* ------------------------------------------------------------------ *)
(* (a) Re-verification and JSON round-trip                             *)
(* ------------------------------------------------------------------ *)

let prop_plan_verifies =
  QCheck.Test.make ~count:120
    ~name:"synthesized plans re-verify and survive a JSON round-trip"
    T_random_sirups.config_arb
    (fun (gs, n, seed, _) ->
      let program = program_of gs in
      match plan_for program ~nprocs:(max 1 n) ~seed with
      | None -> QCheck.assume_fail ()
      | Some plan ->
        Plan.verify plan program = Ok ()
        && (match Plan.of_json (Plan.to_json plan) with
           | Error _ -> false
           | Ok p ->
             p.Plan.scheme = plan.Plan.scheme
             && p.Plan.program_hash = plan.Plan.program_hash
             && p.Plan.nprocs = plan.Plan.nprocs
             && Plan.verify p program = Ok ()))

let prop_plan_non_redundant =
  QCheck.Test.make ~count:100
    ~name:"synthesized non-redundant plans pass Theorem 2 at runtime"
    T_random_sirups.config_arb
    (fun (gs, n, seed, _) ->
      let program = program_of gs in
      match plan_for program ~nprocs:(max 1 n) ~seed with
      | None -> QCheck.assume_fail ()
      | Some plan -> (
        match plan.Plan.scheme with
        | Plan.Wolfson | Plan.Tradeoff _ ->
          QCheck.assume_fail () (* redundant by design (Section 6) *)
        | Plan.Nocomm _ | Plan.Q _ | Plan.General -> (
          match Plan.to_rewrite plan program with
          | Error _ -> false
          | Ok rw ->
            let edb = T_random_sirups.edb_for gs seed in
            let report = Verify.check rw ~edb in
            report.Verify.equal_answers && report.Verify.non_redundant)))

(* ------------------------------------------------------------------ *)
(* (b) Parallel = sequential on both runtimes under random faults,     *)
(* with the certificate validated by the runtime itself.               *)
(* ------------------------------------------------------------------ *)

let prop_plan_runtime (module R : Runtime.S) ~count ~max_n =
  let module H = Harness (R) in
  QCheck.Test.make ~count
    ~name:
      (Printf.sprintf
         "synthesized plans: %s runtime = sequential under random faults"
         R.name)
    T_fault.faulty_config_arb
    (fun ((gs, n, seed, _picks), cfg) ->
      let n = max 1 (min n max_n) in
      let program = program_of gs in
      match plan_for program ~nprocs:n ~seed with
      | None -> QCheck.assume_fail ()
      | Some plan -> (
        match Plan.to_rewrite plan program with
        | Error _ -> false (* a synthesized plan must always build *)
        | Ok rw ->
          let edb = T_random_sirups.edb_for gs seed in
          let fault = T_fault.plan_of cfg ~nprocs:n in
          let config =
            Run_config.with_plan (Some plan) (T_fault.sim_config fault)
          in
          H.agrees_with_sequential ~config ~pred:"t" program rw ~edb))

let prop_plan_sim = prop_plan_runtime (module Runtime.Sim) ~count:80 ~max_n:max_int
let prop_plan_domains = prop_plan_runtime (module Runtime.Domains) ~count:12 ~max_n:3

(* ------------------------------------------------------------------ *)
(* Stale certificates                                                  *)
(* ------------------------------------------------------------------ *)

let other_sirup =
  Parser.program_exn "t(X) :- s0(X).\nt(X) :- t(Y), b9(Y,X)."

let prop_stale_rejected =
  QCheck.Test.make ~count:60
    ~name:"certificates are rejected against any other program (E201)"
    T_random_sirups.config_arb
    (fun (gs, n, seed, _) ->
      let program = program_of gs in
      match plan_for program ~nprocs:(max 1 n) ~seed with
      | None -> QCheck.assume_fail ()
      | Some plan -> (
        match Plan.verify plan other_sirup with
        | Error r -> r.Plan.rcode = Plan.code_stale
        | Ok () ->
          (* Only acceptable if the generated sirup happens to render
             identically — impossible given the predicate names. *)
          false))

(* ------------------------------------------------------------------ *)
(* Deterministic unit cases                                            *)
(* ------------------------------------------------------------------ *)

let unit_ancestor_nocomm () =
  match plan_for ancestor ~nprocs:4 ~seed:0 with
  | None -> Alcotest.fail "no plan for ancestor"
  | Some plan ->
    (match plan.Plan.scheme with
    | Plan.Nocomm _ -> ()
    | s -> Alcotest.failf "expected nocomm, got %s" (Plan.scheme_name s));
    Alcotest.(check (float 0.0))
      "predicted messages" 0.0 plan.Plan.cost.Plan.messages;
    (match plan.Plan.strata with
    | [ st ] ->
      Alcotest.(check bool) "recursive stratum" true st.Plan.recursive;
      Alcotest.(check bool)
        "coordination-free" true st.Plan.coordination_free
    | _ -> Alcotest.fail "expected one stratum");
    let rw = Result.get_ok (Plan.to_rewrite plan ancestor) in
    let edb = edb_of_edges (Workload.Graphgen.chain 40) in
    let config = Run_config.of_plan plan in
    let r = Sim_runtime.run ~config rw ~edb in
    Alcotest.(check int)
      "no cross-processor messages" 0
      (Stats.total_messages r.Sim_runtime.stats)

let unit_nprocs_mismatch () =
  match plan_for ancestor ~nprocs:4 ~seed:0 with
  | None -> Alcotest.fail "no plan for ancestor"
  | Some plan -> (
    match Plan.verify ~nprocs:5 plan ancestor with
    | Error r ->
      Alcotest.(check string) "code" Plan.code_unverified r.Plan.rcode
    | Ok () -> Alcotest.fail "processor-count mismatch accepted")

let unit_runtime_rejects_stale () =
  match plan_for ancestor ~nprocs:4 ~seed:0 with
  | None -> Alcotest.fail "no plan for ancestor"
  | Some plan -> (
    (* Same scheme family, different program: the rewrite under test is
       built from [other_sirup] while the certificate was issued for
       ancestor — the runtime must refuse to start. *)
    let rw = Result.get_ok (Strategy.general ~seed:0 ~nprocs:4 other_sirup) in
    let config = Run_config.of_plan plan in
    let edb = Database.create () in
    ignore (Database.add_fact edb "s0" (Tuple.of_ints [ 1 ]));
    ignore (Database.add_fact edb "b9" (Tuple.of_ints [ 1; 2 ]));
    match Sim_runtime.run ~config rw ~edb with
    | _ -> Alcotest.fail "stale certificate ran"
    | exception Plan.Rejected r ->
      Alcotest.(check string) "code" Plan.code_stale r.Plan.rcode)

let unit_malformed_json () =
  (match Plan.of_json "{\"schema\": 99}" with
  | Error r -> Alcotest.(check string) "code" Plan.code_malformed r.Plan.rcode
  | Ok _ -> Alcotest.fail "schema 99 accepted");
  match Plan.of_json "not json at all" with
  | Error r -> Alcotest.(check string) "code" Plan.code_malformed r.Plan.rcode
  | Ok _ -> Alcotest.fail "garbage accepted"

(* The planner's pick over the data's own profile, against the CLI's
   default Section 7 scheme, on a thin, a wide and a skewed graph. *)
let shape_workloads () =
  let rng = Workload.Rng.create ~seed:2026 in
  [
    ("chain-200", Workload.Graphgen.chain 200);
    ("grid-16", Workload.Graphgen.grid ~rows:16 ~cols:16);
    ("hotspot-50x220", Workload.Graphgen.hotspot rng ~nodes:50 ~edges:220 ~hubs:2);
  ]

let unit_auto_beats_default () =
  List.iter
    (fun (name, edges) ->
      let edb = edb_of_edges edges in
      let profile = Check.Costmodel.profile_of_db edb in
      match plan_for ~profile ancestor ~nprocs:4 ~seed:0 with
      | None -> Alcotest.failf "%s: no plan for ancestor" name
      | Some plan ->
        let messages rw =
          Stats.total_messages (Sim_runtime.run rw ~edb).Sim_runtime.stats
        in
        let auto = messages (Result.get_ok (Plan.to_rewrite plan ancestor)) in
        let default =
          messages (Result.get_ok (Strategy.general ~seed:0 ~nprocs:4 ancestor))
        in
        Alcotest.(check int) (name ^ ": the pick is communication-free") 0 auto;
        Alcotest.(check bool)
          (Printf.sprintf "%s: auto %d <= default %d messages" name auto default)
          true (auto <= default))
    (shape_workloads ())

let suites =
  [
    ( "plan",
      [
        case "ancestor plan is communication-free" unit_ancestor_nocomm;
        case "processor-count mismatch is E202" unit_nprocs_mismatch;
        case "runtime rejects a stale certificate" unit_runtime_rejects_stale;
        case "malformed certificates are E203" unit_malformed_json;
      ]
      @ List.map QCheck_alcotest.to_alcotest
          [
            prop_plan_verifies;
            prop_plan_non_redundant;
            prop_plan_sim;
            prop_plan_domains;
            prop_stale_rejected;
          ]
      @ [
          case "the auto-picked plan sends no more than the default"
            unit_auto_beats_default;
        ] );
  ]
