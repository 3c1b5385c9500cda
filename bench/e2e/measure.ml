(* Clock and summary statistics. Every timing in the harness goes
   through [now], a CLOCK_MONOTONIC read: wall-clock time can jump
   under NTP, which would corrupt exactly the sub-second spans being
   measured. *)

let now () = Monotonic_clock.now ()

let seconds_since t0 = Int64.to_float (Int64.sub (now ()) t0) /. 1e9

(* [time f] = (seconds, result). *)
let time f =
  let t0 = now () in
  let r = f () in
  (seconds_since t0, r)

(* [fill ~seconds ~min f] calls [f] at least [min] times, and again for
   as long as one more call, at the mean time of a call so far, still
   fits in [seconds]. The results, in call order. *)
let fill ~seconds ~min f =
  let t0 = now () in
  let rec go n acc =
    let acc = f () :: acc and n = n + 1 in
    if n < min || seconds_since t0 *. float_of_int (n + 1) /. float_of_int n <= seconds then go n acc
    else List.rev acc
  in
  go 0 []

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Quartiles by the "exclusive" method of Python's
   [statistics.quantiles(xs, n=4)], so q1/q3 printed here match what
   an external script computes from the same samples. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (nan, nan)
  else if n = 1 then (a.(0), a.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
    in
    (q 1, q 3)

(* Nearest-rank percentile, [p] in (0, 1]. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

(* One reported number: the estimate, how far it could move on a rerun
   (q1 and q3, see [bootstrap]), and how many samples stand behind it. *)
type summary = { value : float; q1 : float; q3 : float; n : int }

let single v = { value = v; q1 = v; q3 = v; n = 1 }

(* [bootstrap ~rng stat xs]: [stat] of all samples, with the quartiles
   of [stat] over 200 seeded resamples of [xs] (drawn with replacement)
   as q1 and q3. So the q1..q3 of a median of 50 repetitions says how
   far that median could move on another 50, not how far one
   repetition strays from the next. *)
let bootstrap ~rng stat xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n = 0 then { value = nan; q1 = nan; q3 = nan; n = 0 }
  else
    let resampled () = List.init n (fun _ -> a.(Workload.Rng.int rng n)) in
    let q1, q3 = quartiles (List.init 200 (fun _ -> stat (resampled ()))) in
    { value = stat xs; q1; q3; n }

(* Sum of two independent estimates, e.g. two set-up halves. *)
let add a b = { value = a.value +. b.value; q1 = a.q1 +. b.q1; q3 = a.q3 +. b.q3; n = min a.n b.n }

(* VmHWM (peak resident set) of a process, in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> nan
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
          (fun kb -> float_of_int kb /. 1024.)
      | _ -> scan ()
    in
    let v = scan () in
    close_in ic;
    v
