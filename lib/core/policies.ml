let always_on sys x =
  let sp = Sys_model.sp sys in
  match x with
  | Sys_model.Stable (s, _) ->
      if Service_provider.is_active sp s then s
      else Service_provider.fastest_active sp
  | Sys_model.Transfer (s, _) -> s

let greedy sys x =
  let sp = Sys_model.sp sys in
  let sleep = Service_provider.deepest_sleep sp
  and active = Service_provider.fastest_active sp in
  match x with
  | Sys_model.Stable (s, i) ->
      if Service_provider.is_active sp s then s
      else if i >= 1 then active
      else s
  | Sys_model.Transfer (s, i) -> if i = 1 then sleep else s

let n_policy sys ~n x =
  let sp = Sys_model.sp sys in
  let sleep = Service_provider.deepest_sleep sp
  and active = Service_provider.fastest_active sp in
  let n = max 1 (min n (Sys_model.queue_capacity sys)) in
  match x with
  | Sys_model.Stable (s, i) ->
      if Service_provider.is_active sp s then s
      else if i >= n then active
      else s
  | Sys_model.Transfer (s, i) -> if i = 1 then sleep else s

let actions_array sys policy =
  Array.map policy (Sys_model.states sys)

let check_valid sys policy =
  let states = Sys_model.states sys in
  let rec scan k =
    if k >= Array.length states then Ok ()
    else begin
      let x = states.(k) in
      let a = policy x in
      if List.mem a (Sys_model.valid_actions sys x) then scan (k + 1)
      else
        Error
          (Format.asprintf "action %d invalid in state %a" a (Sys_model.pp_state sys)
             x)
    end
  in
  scan 0

let to_ctmdp_policy sys model policy =
  Dpm_ctmdp.Policy.of_actions model (actions_array sys policy)
