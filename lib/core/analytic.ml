open Dpm_linalg
open Dpm_ctmc

type metrics = {
  power : float;
  avg_waiting_requests : float;
  throughput : float;
  loss_rate : float;
  loss_probability : float;
  avg_waiting_time : float;
  avg_waiting_time_paper : float;
  mode_residency : float array;
  state_probabilities : Vec.t;
}

(* Common metric extraction: a stationary distribution over the SYS
   state space plus a per-state power rate.  [p] becomes the result's
   [state_probabilities] as is. *)
let of_distribution sys ~power_of_index p =
  let sp = Sys_model.sp sys in
  let lam = Sys_model.arrival_rate sys in
  let states = Sys_model.states sys in
  let expect f =
    let acc = ref 0.0 in
    Array.iteri (fun k x -> acc := !acc +. (p.(k) *. f x)) states;
    !acc
  in
  let power =
    let acc = ref 0.0 in
    Array.iteri (fun k pk -> acc := !acc +. (pk *. power_of_index k)) p;
    !acc
  in
  let avg_waiting_requests =
    expect (fun x -> float_of_int (Sys_model.waiting_requests x))
  in
  let loss_probability =
    expect (fun x -> if Sys_model.is_queue_full sys x then 1.0 else 0.0)
  in
  let loss_rate = lam *. loss_probability in
  let throughput =
    expect (fun x ->
        match x with
        | Sys_model.Stable (s, i) when i >= 1 -> Service_provider.service_rate sp s
        | Sys_model.Stable _ | Sys_model.Transfer _ -> 0.0)
  in
  let accepted = lam -. loss_rate in
  let avg_waiting_time =
    if accepted > 0.0 then avg_waiting_requests /. accepted else Float.nan
  in
  let avg_waiting_time_paper = avg_waiting_requests /. lam in
  let mode_residency = Array.make (Service_provider.num_modes sp) 0.0 in
  Array.iteri
    (fun k x -> mode_residency.(Sys_model.mode x) <- mode_residency.(Sys_model.mode x) +. p.(k))
    states;
  {
    power;
    avg_waiting_requests;
    throughput;
    loss_rate;
    loss_probability;
    avg_waiting_time;
    avg_waiting_time_paper;
    mode_residency;
    state_probabilities = p;
  }

let power_of_actions sys actions k =
  let x = Sys_model.state_of_index sys k in
  Sys_model.power_cost sys x ~action:(actions x)

let of_actions sys ~actions =
  let g = Sys_model.generator_of_actions sys ~actions in
  of_distribution sys (Steady_state.solve g)
    ~power_of_index:(power_of_actions sys actions)

let of_mixed sys ~gen ~power_rates =
  if Dpm_linalg.Vec.dim power_rates <> Sys_model.num_states sys then
    invalid_arg "Analytic.of_mixed: power vector dimension mismatch";
  of_distribution sys (Steady_state.solve gen) ~power_of_index:(fun k ->
      power_rates.(k))

let of_action_array sys actions =
  if Array.length actions <> Sys_model.num_states sys then
    invalid_arg "Analytic.of_action_array: dimension mismatch";
  of_actions sys ~actions:(fun x -> actions.(Sys_model.index sys x))

let of_stationary sys actions p =
  let n = Sys_model.num_states sys in
  if Array.length actions <> n || Dpm_linalg.Vec.dim p <> n then
    invalid_arg "Analytic.of_stationary: dimension mismatch";
  of_distribution sys p
    ~power_of_index:
      (power_of_actions sys (fun x -> actions.(Sys_model.index sys x)))

let energy_per_request m =
  if m.throughput > 0.0 then m.power /. m.throughput else Float.nan

let pp ppf m =
  Format.fprintf ppf
    "power=%.4g W, waiting=%.4g req, wait=%.4g s, loss=%.3g%%, throughput=%.4g/s"
    m.power m.avg_waiting_requests m.avg_waiting_time
    (100.0 *. m.loss_probability)
    m.throughput
