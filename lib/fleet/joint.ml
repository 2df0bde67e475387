open Dpm_core
open Dpm_linalg
module Generator = Dpm_ctmc.Generator
module Steady_state = Dpm_ctmc.Steady_state

type t = {
  servers : Deploy.server array;
  weight : float;
  dims : int array;
  strides : int array;  (* stride of each server's coordinate, server 0 major *)
  gen : Generator.t;
}

let max_states = 20_000

let build (d : Deploy.t) =
  let n = Spec.num_servers d.Deploy.spec in
  if d.Deploy.active <> n then
    invalid_arg "Dpm_fleet.Joint.build: every server must be active";
  let servers = Deploy.active_servers d in
  let dims = Array.map (fun s -> Sys_model.num_states s.Deploy.sys) servers in
  let total = Array.fold_left ( * ) 1 dims in
  if total > max_states then
    invalid_arg
      (Printf.sprintf "Dpm_fleet.Joint.build: %d joint states exceeds cap %d"
         total max_states);
  let strides = Array.make n 1 in
  for i = n - 2 downto 0 do
    strides.(i) <- strides.(i + 1) * dims.(i + 1)
  done;
  let closed_loop s =
    let sys = s.Deploy.sys in
    Sys_model.generator_of_actions sys ~actions:(fun x ->
        s.Deploy.actions.(Sys_model.index sys x))
  in
  let locals = Array.map closed_loop servers in
  (* The Kronecker sum, row by row: from joint state [x], server [i]
     moves its own coordinate [a -> b] at its local rate and leaves the
     others alone, which shifts the flat index by [(b - a) * stride].
     Distinct (server, target) pairs give distinct targets, so no two
     rates are merged. *)
  let rates = ref [] in
  for x = total - 1 downto 0 do
    Array.iteri
      (fun i g ->
        let stride = strides.(i) in
        let a = x / stride mod dims.(i) in
        Generator.iter_row g a (fun b r ->
            rates := (x, x + ((b - a) * stride), r) :: !rates))
      locals
  done;
  let gen = Generator.of_rates ~dim:total !rates in
  { servers; weight = d.Deploy.spec.Spec.weight; dims; strides; gen }

let num_states t = Generator.dim t.gen
let dims t = Array.copy t.dims
let stationary ?guard t = Steady_state.solve ?guard t.gen

let server_stationary (s : Deploy.server) =
  match s.Deploy.solution with
  | Some sol -> sol.Optimize.metrics.Analytic.state_probabilities
  | None -> (Analytic.of_action_array s.Deploy.sys s.Deploy.actions).Analytic.state_probabilities

let product_stationary t =
  let pis = Array.map server_stationary t.servers in
  let n = num_states t in
  Vec.init n (fun x ->
      let acc = ref 1.0 in
      Array.iteri
        (fun i stride -> acc := !acc *. pis.(i).((x / stride) mod t.dims.(i)))
        t.strides;
      !acc)

let marginal t pi ~server =
  if server < 0 || server >= Array.length t.servers then
    invalid_arg "Dpm_fleet.Joint.marginal: bad server index";
  let out = Vec.create t.dims.(server) in
  let stride = t.strides.(server) in
  Array.iteri
    (fun x p -> out.((x / stride) mod t.dims.(server)) <- out.((x / stride) mod t.dims.(server)) +. p)
    pi;
  out

let gain t pi =
  (* Per-server weighted cost of each local state under its deployed
     action; the joint cost rate is separable. *)
  let costs =
    Array.map
      (fun s ->
        let sys = s.Deploy.sys in
        Array.init (Sys_model.num_states sys) (fun xi ->
            Sys_model.cost sys ~weight:t.weight (Sys_model.state_of_index sys xi)
              ~action:s.Deploy.actions.(xi)))
      t.servers
  in
  let acc = ref 0.0 in
  Array.iteri
    (fun x p ->
      if p <> 0.0 then begin
        let c = ref 0.0 in
        Array.iteri
          (fun i stride -> c := !c +. costs.(i).((x / stride) mod t.dims.(i)))
          t.strides;
        acc := !acc +. (p *. !c)
      end)
    pi;
  !acc
