external now_ns : unit -> int = "obs_clock_monotonic_ns" [@@noalloc]

let now () = float_of_int (now_ns ()) *. 1e-9
