open Datalog

type spec =
  | Opaque
  | Bitvec
  | Linear of { coeffs : int array; lo : int }

type t = {
  name : string;
  arity : int;
  space : Pid.space;
  apply : Const.t array -> Pid.t;
  spec : spec;
}

let apply h key =
  if Array.length key <> h.arity then
    invalid_arg
      (Printf.sprintf "Hash_fn.apply: %s expects %d components, got %d"
         h.name h.arity (Array.length key));
  h.apply key

let bit ~seed c = Const.hash_seeded seed c land 1

(* The families below fold their key with plain loops: they run once
   per routed tuple and per guard test, so they allocate nothing. *)
let combined_hash ~seed key =
  let acc = ref (Array.length key) in
  for i = 0 to Array.length key - 1 do
    acc := (!acc * 0x01000193) lxor Const.hash_seeded seed key.(i)
  done;
  !acc land max_int

let modulo ?(name = "h") ?(seed = 0) ~nprocs ~arity () =
  {
    name;
    arity;
    space = Pid.dense nprocs;
    apply = (fun key -> combined_hash ~seed key mod nprocs);
    spec = Opaque;
  }

let symmetric_modulo ?(name = "h") ?(seed = 0) ~nprocs ~arity () =
  let apply key =
    let acc = ref 0 in
    for i = 0 to Array.length key - 1 do
      acc := !acc + Const.hash_seeded seed key.(i)
    done;
    (!acc land max_int) mod nprocs
  in
  { name; arity; space = Pid.dense nprocs; apply; spec = Opaque }

let bitvec ?(name = "h") ?(seed = 0) ~arity () =
  let apply key =
    let id = ref 0 in
    for i = 0 to Array.length key - 1 do
      id := (!id lsl 1) lor bit ~seed key.(i)
    done;
    !id
  in
  { name; arity; space = Pid.bitvec arity; apply; spec = Bitvec }

let linear ?(name = "h") ?(seed = 0) ~coeffs () =
  let coeffs = Array.of_list coeffs in
  if Array.length coeffs = 0 then invalid_arg "Hash_fn.linear: no coefficients";
  let lo = Array.fold_left (fun acc c -> acc + min 0 c) 0 coeffs in
  let hi = Array.fold_left (fun acc c -> acc + max 0 c) 0 coeffs in
  let apply key =
    let v = ref 0 in
    for i = 0 to Array.length key - 1 do
      v := !v + (coeffs.(i) * bit ~seed key.(i))
    done;
    !v - lo
  in
  {
    name;
    arity = Array.length coeffs;
    space = Pid.range ~lo ~hi;
    apply;
    spec = Linear { coeffs; lo };
  }

let constant ?name ~nprocs ~arity pid =
  if pid < 0 || pid >= nprocs then
    invalid_arg "Hash_fn.constant: pid out of range";
  let name =
    match name with Some n -> n | None -> Printf.sprintf "const%d" pid
  in
  {
    name;
    arity;
    space = Pid.dense nprocs;
    apply = (fun _ -> pid);
    spec = Opaque;
  }

module Ttbl = Hashtbl.Make (struct
  type t = Tuple.t

  let equal = Tuple.equal
  let hash = Tuple.hash
end)

let partition_induced ?(name = "h") ~nprocs ~fallback assignment =
  let table = Ttbl.create (List.length assignment * 2) in
  let arity =
    match assignment with
    | [] -> fallback.arity
    | (t, _) :: _ -> Tuple.arity t
  in
  List.iter
    (fun (tuple, pid) ->
      if Tuple.arity tuple <> arity then
        invalid_arg "Hash_fn.partition_induced: tuple arity mismatch";
      if pid < 0 || pid >= nprocs then
        invalid_arg "Hash_fn.partition_induced: pid out of range";
      match Ttbl.find_opt table tuple with
      | Some pid' when pid' <> pid ->
        invalid_arg
          (Printf.sprintf
             "Hash_fn.partition_induced: %s in fragments %d and %d"
             (Tuple.to_string tuple) pid' pid)
      | _ -> Ttbl.replace table tuple pid)
    assignment;
  if fallback.arity <> arity then
    invalid_arg "Hash_fn.partition_induced: fallback arity mismatch";
  let apply key =
    match Ttbl.find_opt table (Tuple.make (Array.copy key)) with
    | Some pid -> pid
    | None -> fallback.apply key mod nprocs
  in
  { name; arity; space = Pid.dense nprocs; apply; spec = Opaque }

let mixture ?name ?(seed = 77) ~alpha ~self base =
  if alpha < 0.0 || alpha > 1.0 then
    invalid_arg "Hash_fn.mixture: alpha must be in [0,1]";
  let name =
    match name with
    | Some n -> n
    | None -> Printf.sprintf "h%d[alpha=%.2f]" self alpha
  in
  let threshold = int_of_float (alpha *. 1_000_000.) in
  let apply key =
    if combined_hash ~seed key mod 1_000_000 < threshold then self
    else base.apply key
  in
  { name; arity = base.arity; space = base.space; apply; spec = Opaque }

let mixture_dyn ?name ?(seed = 77) ~alpha ~self base =
  let name =
    match name with
    | Some n -> n
    | None -> Printf.sprintf "h%d[alpha=dyn]" self
  in
  let apply key =
    let a = alpha () in
    let a = if a < 0.0 then 0.0 else if a > 1.0 then 1.0 else a in
    let threshold = int_of_float (a *. 1_000_000.) in
    if combined_hash ~seed key mod 1_000_000 < threshold then self
    else base.apply key
  in
  { name; arity = base.arity; space = base.space; apply; spec = Opaque }

let of_fun ~name ~arity ~space f =
  {
    name;
    arity;
    space;
    apply = (fun key -> ((f key mod Pid.size space) + Pid.size space)
                        mod Pid.size space);
    spec = Opaque;
  }

let pp ppf h =
  Format.fprintf ppf "%s/%d -> %d procs" h.name h.arity (Pid.size h.space)
