module type S = sig
  val name : string

  val run :
    config:Run_config.t ->
    Rewrite.t ->
    edb:Datalog.Database.t ->
    Sim_runtime.result

  val open_session :
    config:Run_config.t ->
    Rewrite.t ->
    edb:Datalog.Database.t ->
    Session.t
end

module Sim : S = struct
  let name = "sim"
  let run ~config rw ~edb = Sim_runtime.run ~config rw ~edb
  let open_session ~config rw ~edb = Sim_runtime.open_session ~config rw ~edb
end

module Domains : S = struct
  let name = "domains"
  let run ~config rw ~edb = Domain_runtime.run ~config rw ~edb

  let open_session ~config rw ~edb =
    Domain_runtime.open_session ~config rw ~edb
end

let all : (module S) list = [ (module Sim); (module Domains) ]

let find name =
  List.find_opt (fun (module R : S) -> String.equal R.name name) all
