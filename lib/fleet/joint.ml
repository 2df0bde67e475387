open Dpm_core
open Dpm_linalg
module Generator = Dpm_ctmc.Generator
module Steady_state = Dpm_ctmc.Steady_state

type t = {
  servers : Deploy.server array;
  weight : float;
  dims : int array;
  strides : int array;  (* stride of each server's coordinate, server 0 major *)
  op : Operator.t;
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
  let op =
    Array.fold_left
      (fun acc s ->
        let g = Operator.dense (Generator.to_matrix (closed_loop s)) in
        match acc with None -> Some g | Some a -> Some (Operator.kron_sum a g))
      None servers
    |> Option.get
  in
  { servers; weight = d.Deploy.spec.Spec.weight; dims; strides; op }

let num_states t = Operator.rows t.op
let dims t = Array.copy t.dims
let operator t = t.op

let stationary ?guard t =
  let gen = Generator.of_matrix (Operator.to_dense t.op) in
  Steady_state.solve ?guard gen

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
