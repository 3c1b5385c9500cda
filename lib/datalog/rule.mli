(** Rules, optionally carrying hash guards.

    A guard is the evaluable form of the paper's "[h(v(r)) = i]"
    conjunct: a named function applied to the values bound to a sequence
    of variables, compared against an expected result. Guards keep the
    sequential engine ignorant of the parallel framework while letting
    rewritten per-processor programs run on it unchanged. *)

type guard = {
  gname : string;  (** Printable name of the hash function, e.g. ["h"]. *)
  gvars : string array;  (** The discriminating sequence of variables. *)
  gfn : Const.t array -> int;  (** The discriminating function itself. *)
  gexpect : int;  (** The processor id the hash must equal. *)
}

type t = {
  head : Atom.t;
  body : Atom.t list;  (** Positive body atoms. *)
  neg : Atom.t list;
      (** Negated body atoms ([not p(X̄)]). The evaluation engines
          reject rules with negation ({!Program.check}); the static
          checker analyses them (safety, stratifiability). *)
  guards : guard list;
  loc : int option;  (** 1-based source line, when parsed from text. *)
}

val make : ?loc:int -> ?neg:Atom.t list -> ?guards:guard list ->
  Atom.t -> Atom.t list -> t

val guard :
  name:string -> vars:string list -> fn:(Const.t array -> int) -> expect:int
  -> guard

val head_vars : t -> string list
val body_vars : t -> string list
(** Variables of the positive body atoms only. *)

val neg_vars : t -> string list
(** Variables of the negated body atoms. *)

val vars : t -> string list
(** All head and positive-body variables, first-occurrence order (head
    first). *)

val is_fact : t -> bool
(** True when the body is empty and the head is ground. *)

val is_safe : t -> bool
(** Every head, negated-atom and guard variable occurs in the positive
    body (range restriction). *)

val guard_ok : guard -> (string * Const.t) list -> bool option
(** [guard_ok g env] is [None] if some guard variable is unbound in
    [env], otherwise [Some b] where [b] says whether the guard holds. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
