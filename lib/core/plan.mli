(** Parallel-correctness certificates.

    A plan is the output of the static planner ([datalogp check
    --suggest]): a versioned, serializable record of the scheme the
    planner chose for a program, the costs it predicted, and the
    per-stratum coordination classification it derived. The runtimes
    treat a plan as a {e certificate}: before executing under one, they
    re-verify that the program still hashes to the certified value and
    that the scheme still passes the paper's preconditions (Theorem 2
    effectiveness, Theorem 3 cycle choice, Section 7 well-formedness).
    A stale or forged certificate is rejected fail-fast with a stable
    error code — it can never silently run.

    The JSON encoding is versioned ([schema]) and deterministic (fixed
    field order, fixed float precision), so certificates diff cleanly
    and cram tests can pin them byte-for-byte. *)

open Datalog

type scheme =
  | Nocomm of { ve : string list; vr : string list }
      (** Theorem 3: discriminate on a dataflow cycle with a symmetric
          hash; no messages during the recursion. *)
  | Q of { ve : string list; vr : string list }
      (** Section 3 scheme [Q] with the given discriminating
          sequences. *)
  | Wolfson
      (** Section 6 scheme [18]: redundant, communication-free. *)
  | Tradeoff of { alpha : float }
      (** Section 6 spectrum: keep a tuple local with probability
          [alpha], else route by hash. *)
  | General  (** Section 7 scheme [T] for arbitrary programs. *)

type cost = {
  messages : float;
      (** Predicted cross-processor tuples per round (model units). *)
  redundancy : float;  (** Predicted duplicated-work fraction α ∈ [0,1]. *)
  balance : float;  (** Predicted max/mean processor load ratio (≥ 1). *)
  total : float;  (** The scalar the planner ranked candidates by. *)
}

type stratum = {
  preds : string list;  (** The SCC's predicates, sorted. *)
  recursive : bool;
  coordination_free : bool;
      (** No cross-processor exchange needed inside the stratum. *)
}

type t = {
  program_hash : string;  (** Hex digest of the program's rules. *)
  nprocs : int;
  seed : int;
  scheme : scheme;
  cost : cost;
  strata : stratum list;  (** Bottom-up, as {!Analysis.sccs} orders them. *)
}

type reject = {
  rcode : string;  (** Stable error code: E201, E202 or E203. *)
  reason : string;
}

exception Rejected of reject
(** Raised by {!validate_exn} — and hence by both runtimes at startup
    when a {!Run_config.t} carries a plan that no longer verifies. *)

val schema_version : int
(** Currently [1]. *)

val code_stale : string
(** ["E201"] — program hash mismatch: the program changed since the
    certificate was issued. *)

val code_unverified : string
(** ["E202"] — the certified scheme no longer passes re-verification
    against the program (Theorem 2/3 or Section 7 preconditions). *)

val code_malformed : string
(** ["E203"] — the certificate itself is malformed: bad JSON, wrong
    schema version, unknown scheme, or out-of-range fields. *)

val scheme_name : scheme -> string
(** Stable lowercase name: ["nocomm"], ["q"], ["wolfson"],
    ["tradeoff"], ["general"]. *)

val pp_scheme : Format.formatter -> scheme -> unit
(** Human rendering, e.g. [q(ve=⟨X⟩, vr=⟨Z⟩)]. *)

val program_hash : Program.t -> string
(** Digest of the rules (not the facts: a certificate stays valid when
    only the EDB changes), canonically rendered one per line. *)

val make :
  nprocs:int ->
  seed:int ->
  scheme:scheme ->
  cost:cost ->
  strata:stratum list ->
  Program.t ->
  t
(** Stamp a certificate for the given program ({!program_hash} is
    computed here). *)

val to_json : t -> string
(** Deterministic pretty-printed JSON (schema 1, fixed field order,
    floats at 3 decimals), ending in a newline. *)

val of_json : string -> (t, reject) result
(** Parse a schema-1 certificate. Any syntactic or structural problem
    is an [E203] reject. *)

val verify : ?nprocs:int -> t -> Program.t -> (unit, reject) result
(** Re-verify the certificate against a program: hash match ([E201]
    otherwise), scheme preconditions ([E202]), and — when [nprocs] is
    given, as the runtimes do — agreement with the executing processor
    count ([E202]). *)

val validate_exn : ?nprocs:int -> t -> Program.t -> unit
(** {!verify}, raising {!Rejected}. *)

val build :
  nprocs:int -> seed:int -> scheme -> Program.t -> (Rewrite.t, string) result
(** The scheme's rewrite, from its {!Strategy} constructor. *)

val to_rewrite : t -> Program.t -> (Rewrite.t, reject) result
(** {!verify}, then build the certified scheme's rewrite via
    {!Strategy} with the certificate's [nprocs] and [seed]. *)

val pp_reject : Format.formatter -> reject -> unit
(** ["error[E20x]: reason"]. *)
