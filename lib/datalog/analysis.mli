(** Static analysis of Datalog programs: predicate dependencies,
    recursion structure, and recognition of linear sirups (the program
    class of Sections 3–6 of the paper). *)

val dependency_graph : Program.t -> (string * string list) list
(** For each derived predicate, the sorted list of predicates occurring
    in the bodies of its rules — negated occurrences included (i.e. the
    predicates that derive it). *)

val sccs : Program.t -> string list list
(** Strongly connected components of the dependency graph restricted to
    derived predicates, in bottom-up topological order. Components are
    sorted internally. *)

val mutually_recursive : Program.t -> string -> string -> bool
(** Whether two derived predicates belong to the same SCC (a predicate
    is mutually recursive with itself iff it transitively derives
    itself). *)

val recursive_atoms : Program.t -> Rule.t -> Atom.t list
(** The body atoms of a rule whose predicate is in the same SCC as the
    rule's head predicate (and hence participate in the recursion). *)

val is_recursive_rule : Program.t -> Rule.t -> bool
val is_linear : Program.t -> bool
(** Every rule has at most one recursive body atom. *)

type sirup = {
  pred : string;  (** The single derived predicate [t]. *)
  exit_rule : Rule.t;
  rec_rule : Rule.t;
  head_vars : string array;  (** X̄: the recursive head's argument variables. *)
  rec_atom : Atom.t;  (** The unique [t]-atom in the recursive body. *)
  rec_vars : string array;  (** Ȳ: the recursive atom's argument variables. *)
  base_atoms : Atom.t list;  (** b₁ … bₖ. *)
}
(** The canonical form of a linear sirup:
    [e:  t(Z̄) :- s(Z̄).    r:  t(X̄) :- t(Ȳ), b₁, …, bₖ.] *)

type not_sirup =
  | Not_single_predicate of string list  (** The derived predicates found. *)
  | Ill_formed of string  (** {!Program.check} failure. *)
  | Wrong_rule_count of { recursive : int; exit : int }
  | Nonlinear_recursive_rule of Rule.t  (** More than one recursive atom. *)
  | Head_has_constants of Rule.t
  | Rec_atom_has_constants of Rule.t
(** Why a program is not a linear sirup — structured so diagnostics can
    point at the offending rule and suggest a remedy. *)

val explain_not_sirup : not_sirup -> string

val as_sirup : Program.t -> (sirup, not_sirup) result
(** Recognize a linear sirup: exactly one derived predicate, exactly two
    rules — one non-recursive (exit) and one with exactly one recursive
    atom — whose head and recursive-atom arguments are all variables,
    and both rules safe. *)

val as_sirup_string : Program.t -> (sirup, string) result
(** {!as_sirup} with the error rendered by {!explain_not_sirup}. *)
