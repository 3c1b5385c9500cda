val escape : string -> string
(** The body of a JSON string literal holding [s]: quotes and
    backslashes escaped, [\n], [\t] and [\r] by name and every other
    control character as [\u00XX]. Every JSON writer of the project
    uses it. *)
