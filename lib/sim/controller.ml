open Dpm_core

type reason =
  | Init
  | Arrival
  | Arrival_lost
  | Service_completed of int
  | Switch_completed
  | Timer

type observation = {
  time : float;
  mode : int;
  switching_to : int option;
  queue_length : int;
  in_transfer : bool;
}

type decision = { target : int option; timer : float option }

type t = { name : string; decide : observation -> reason -> decision }

let no_change = { target = None; timer = None }

(* During the whole transfer period (service done, next not started)
   the model state is q_{i -> i-1} with i - 1 = current queue length;
   arrivals inside the transfer move between transfer states, so the
   lookup stays there. *)
let state_of_observation sys obs =
  let q_cap = Sys_model.queue_capacity sys in
  let sp = Sys_model.sp sys in
  if obs.in_transfer && Service_provider.is_active sp obs.mode then
    Sys_model.Transfer (obs.mode, max 1 (min (obs.queue_length + 1) q_cap))
  else Sys_model.Stable (obs.mode, min obs.queue_length q_cap)

let of_dynamic_policy ?(name = "ctmdp-policy") sys ~policy =
  let decide obs _reason =
    { target = Some ((policy ()) (state_of_observation sys obs)); timer = None }
  in
  { name; decide }

let of_time_policy ?(name = "time-policy") ?(wake = []) sys ~policy =
  List.iter
    (fun t ->
      if t < 0.0 || not (Float.is_finite t) then
        invalid_arg "Controller.of_time_policy: wake times must be >= 0 and finite")
    wake;
  let remaining = ref (List.sort_uniq compare wake) in
  let decide obs reason =
    let timer =
      (* Chain one timer through the wake list: Init requests the
         first boundary, each fired timer the next — so the policy is
         re-consulted at every boundary even during quiet stretches
         (a fleet plan parks or wakes servers there), and the heap
         carries at most one wake timer at a time. *)
      match reason with
      | Init | Timer ->
          let rec pop () =
            match !remaining with
            | t :: rest when t <= obs.time +. 1e-12 ->
                remaining := rest;
                pop ()
            | t :: _ -> Some (t -. obs.time)
            | [] -> None
          in
          pop ()
      | Arrival | Arrival_lost | Service_completed _ | Switch_completed -> None
    in
    { target = Some (policy obs.time (state_of_observation sys obs)); timer }
  in
  { name; decide }

let of_policy sys policy = of_dynamic_policy sys ~policy:(fun () -> policy)

let of_solution sys (s : Optimize.solution) = of_policy sys (Optimize.action_of sys s)

let always_on sys =
  let active = Service_provider.fastest_active (Sys_model.sp sys) in
  { name = "always-on"; decide = (fun _ _ -> { target = Some active; timer = None }) }

let greedy sys =
  let sp = Sys_model.sp sys in
  let sleep = Service_provider.deepest_sleep sp
  and active = Service_provider.fastest_active sp in
  let decide obs _reason =
    if obs.queue_length > 0 then { target = Some active; timer = None }
    else { target = Some sleep; timer = None }
  in
  { name = "greedy"; decide }

let n_policy sys ~n =
  if n < 1 then invalid_arg "Controller.n_policy: n must be >= 1";
  let sp = Sys_model.sp sys in
  let sleep = Service_provider.deepest_sleep sp
  and active = Service_provider.fastest_active sp in
  let decide obs _reason =
    if obs.queue_length = 0 then { target = Some sleep; timer = None }
    else if obs.queue_length >= n then { target = Some active; timer = None }
    else if Service_provider.is_active sp obs.mode && obs.switching_to = None then
      (* 1 <= queue < n with the server up: serve exhaustively —
         explicitly re-command the current mode so a pending transfer
         resolves and the next service starts. *)
      { target = Some obs.mode; timer = None }
    else (* server down (or heading down): wait for the N-th request *)
      no_change
  in
  { name = Printf.sprintf "n-policy(%d)" n; decide }

let timeout sys ~delay =
  if delay < 0.0 || not (Float.is_finite delay) then
    invalid_arg "Controller.timeout: delay must be nonnegative and finite";
  let sp = Sys_model.sp sys in
  let sleep = Service_provider.deepest_sleep sp
  and active = Service_provider.fastest_active sp in
  (* [idle_since] is the clock value at which the system last became
     empty with the SP up; a fired timer compares against it so stale
     timers (the queue refilled meanwhile) are ignored. *)
  let idle_since = ref None in
  let decide obs reason =
    if obs.queue_length > 0 then begin
      idle_since := None;
      { target = Some active; timer = None }
    end
    else begin
      let is_up = Service_provider.is_active sp obs.mode && obs.switching_to = None in
      match reason with
      | Timer -> (
          match !idle_since with
          | Some since when obs.time -. since >= delay -. 1e-12 ->
              idle_since := None;
              { target = Some sleep; timer = None }
          | Some _ | None -> no_change)
      | Init | Arrival | Arrival_lost | Service_completed _ | Switch_completed ->
          if is_up && !idle_since = None then begin
            idle_since := Some obs.time;
            { target = None; timer = Some delay }
          end
          else no_change
    end
  in
  { name = Printf.sprintf "timeout(%g)" delay; decide }

let periodic ~period ~decide =
  if period <= 0.0 || not (Float.is_finite period) then
    invalid_arg "Controller.periodic: period must be positive and finite";
  let decide obs reason =
    match reason with
    | Init -> { target = None; timer = Some period }
    | Timer ->
        {
          target = Some (decide ~mode:obs.mode ~queue:obs.queue_length);
          timer = Some period;
        }
    | Arrival | Arrival_lost | Service_completed _ | Switch_completed ->
        no_change
  in
  { name = Printf.sprintf "periodic(%g)" period; decide }

let time_shared ~period ~fraction a b =
  if period <= 0.0 || not (Float.is_finite period) then
    invalid_arg "Controller.time_shared: period must be positive and finite";
  if fraction < 0.0 || fraction > 1.0 then
    invalid_arg "Controller.time_shared: fraction must be in [0, 1]";
  let decide obs reason =
    let phase = Float.rem obs.time period /. period in
    let da = a.decide obs reason and db = b.decide obs reason in
    let active = if phase < fraction then da else db in
    (* Wake ourselves at every scheduled handover so the incoming
       controller is consulted promptly even during quiet stretches.
       The next boundary is whichever of (fraction, 1) * period comes
       after the current phase. *)
    let next_boundary =
      let into = Float.rem obs.time period in
      let to_switch = (fraction *. period) -. into in
      let to_wrap = period -. into in
      let candidates = List.filter (fun d -> d > 1e-9) [ to_switch; to_wrap ] in
      List.fold_left Float.min infinity candidates
    in
    let timer =
      match active.timer with
      | Some t -> Some (Float.min t next_boundary)
      | None -> (
          match reason with
          | Init | Timer ->
              if Float.is_finite next_boundary then Some next_boundary else None
          | Arrival | Arrival_lost | Service_completed _ | Switch_completed ->
              None)
    in
    { target = active.target; timer }
  in
  {
    name = Printf.sprintf "time-shared(%.2f:%s|%s)" fraction a.name b.name;
    decide;
  }
