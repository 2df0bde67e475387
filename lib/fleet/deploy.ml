open Dpm_core

type server = {
  server : int;
  group : int;
  sys : Sys_model.t;
  actions : int array;
  solution : Optimize.solution option;
  fresh : bool;
}

type t = {
  spec : Spec.t;
  total_rate : float;
  active : int;
  servers : server option array;
  failures : (int * Dpm_robust.Error.t) list;
}

let fallback_server spec ~server ~rate =
  let g = Spec.group_of_server spec server in
  let sys = Sys_model.with_arrival_rate (Spec.base_system spec g) rate in
  let actions = Policies.actions_array sys (Policies.always_on sys) in
  { server; group = g; sys; actions; solution = None; fresh = false }

let resolve ?domains ?guard ?prev spec ~total_rate ~active =
  if (not (Float.is_finite total_rate)) || total_rate <= 0.0 then
    invalid_arg
      (Printf.sprintf "Dpm_fleet.Deploy.resolve: bad total rate %g" total_rate);
  let n = Spec.num_servers spec in
  if active < spec.Spec.min_active || active > n then
    invalid_arg
      (Printf.sprintf "Dpm_fleet.Deploy.resolve: active %d outside [%d, %d]"
         active spec.Spec.min_active n);
  let bases = Array.init (Spec.num_groups spec) (fun g -> Spec.base_system spec g) in
  let weight = spec.Spec.weight in
  let jobs =
    Array.init active (fun i ->
        (i, Spec.server_rate spec ~total_rate ~active ~server:i))
  in
  let results =
    Dpm_par.parallel_map ?domains
      (fun (i, rate) ->
        let g = Spec.group_of_server spec i in
        ( i,
          rate,
          Dpm_robust.Guard.run ~stage:"fleet.deploy" (fun _ ->
              let sys = Sys_model.with_arrival_rate bases.(g) rate in
              (sys, Optimize.solve ~weight ?guard sys)) ))
      jobs
  in
  let failures = ref [] in
  let servers = Array.make n None in
  Array.iter
    (fun (i, rate, res) ->
      match res with
      | Ok (sys, sol) ->
          servers.(i) <-
            Some
              { server = i; group = Spec.group_of_server spec i; sys;
                actions = sol.Optimize.actions; solution = Some sol; fresh = true }
      | Error err -> (
          failures := (i, err) :: !failures;
          match prev with
          | Some p when i < Array.length p.servers && p.servers.(i) <> None ->
              let s = Option.get p.servers.(i) in
              servers.(i) <- Some { s with fresh = false }
          | _ -> servers.(i) <- Some (fallback_server spec ~server:i ~rate)))
    results;
  { spec; total_rate; active; servers; failures = List.rev !failures }

let active_servers t =
  Array.of_list
    (List.filter_map Fun.id (Array.to_list t.servers))

let gain t =
  Array.fold_left
    (fun acc s ->
      match s with
      | None -> acc
      | Some s -> (
          match s.solution with
          | Some sol -> acc +. sol.Optimize.gain
          | None ->
              let m = Analytic.of_action_array s.sys s.actions in
              acc
              +. m.Analytic.power
              +. (t.spec.Spec.weight *. m.Analytic.avg_waiting_requests)))
    0.0 t.servers
