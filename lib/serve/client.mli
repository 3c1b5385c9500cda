(** A blocking [datalogd] client connection.

    Used by [datalogd --connect] (the CLI client mode), the [@serve]
    smoke test, and the [bench/e2e] serve load. One [t] is one
    session — not thread-safe; give each client thread its own
    connection. *)

type t

type reply = {
  head : Protocol.head;  (** Classified head line. *)
  rows : string list;  (** ROW payloads (RESULT with [rows=true]). *)
  raw : string list;  (** Every raw reply line, for byte-exact replay checks. *)
}

type connect_result =
  | Conn of t
  | Conn_busy of { reason : string; retry_after_ms : int }
      (** The server refused the session at accept time (session cap or
          drain) — a clean, immediate rejection. *)
  | Conn_error of string

val connect : ?attempts:int -> ?delay_ms:int -> Server.addr -> connect_result
(** Connect and consume the greeting. Transient failures (daemon still
    binding, backlog full) are retried up to [attempts] times (default
    40) with [delay_ms] (default 25) between tries, so a test can start
    the daemon and connect without an external readiness barrier. *)

val close : t -> unit

val send : t -> ?payload:string -> string -> unit
(** Write a request line; [payload] appends LOAD/FACTS body lines and
    the closing ["."] terminator. *)

val read_reply : t -> (reply, string) result
(** Read one complete reply — a single line, or a
    [RESULT]/[PARTIAL] … [END] block. *)

val request : t -> ?payload:string -> string -> (reply, string) result
(** {!send} then {!read_reply}. *)

type attempt_outcome = {
  reply : reply;  (** Final reply — anything but BUSY/RETRY, or the
                      last BUSY/RETRY when attempts ran out. *)
  attempts : int;
  busy_replies : int;
  retry_replies : int;
}

val request_retry :
  ?max_attempts:int ->
  ?base_ms:int ->
  ?cap_ms:int ->
  ?jitter:(int -> int) ->
  t ->
  ?payload:string ->
  string ->
  (attempt_outcome, string) result
(** {!request}, resending on [BUSY] and [RETRY] with exponential
    backoff: attempt [k] sleeps [max hint (min cap_ms (base_ms * 2^k))
    + jitter k] milliseconds, where [hint] is the server's
    [retry-after-ms]. [jitter] defaults to none — pass a seeded
    generator for decorrelated load tests (deterministic, so runs
    reproduce). Since a [QUERY] is idempotent under its id, resending
    never double-executes. *)
