(** The one clock every timer, deadline and trace timestamp reads:
    [clock_gettime(CLOCK_MONOTONIC)], through a small C stub in this
    library. Unlike [Unix.gettimeofday] it never jumps when the wall
    clock is set, so a measured duration or a pending deadline cannot
    go negative or stretch. Readings are only meaningful relative to
    each other, within one boot of the machine. *)

val now_ns : unit -> int
(** Nanoseconds since an arbitrary fixed point. *)

val now : unit -> float
(** {!now_ns} in seconds — the unit deadlines and backoffs use. *)
