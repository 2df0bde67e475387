open Dpm_core
module Model = Dpm_ctmdp.Model
module Policy = Dpm_ctmdp.Policy
module Pi = Dpm_ctmdp.Policy_iteration
module Steady_state = Dpm_ctmc.Steady_state
module Generator = Dpm_ctmc.Generator

type load = { rates : float array; switch : float array array }

let uniform_load ~rate = { rates = [| rate |]; switch = [| [| 0.0 |] |] }

let cyclic_load pairs =
  if pairs = [] then invalid_arg "Dpm_fleet.Cluster.cyclic_load: empty phase list";
  List.iter
    (fun (rate, dwell) ->
      if (not (Float.is_finite rate)) || rate <= 0.0 then
        invalid_arg (Printf.sprintf "Dpm_fleet.Cluster.cyclic_load: bad rate %g" rate);
      if (not (Float.is_finite dwell)) || dwell <= 0.0 then
        invalid_arg
          (Printf.sprintf "Dpm_fleet.Cluster.cyclic_load: bad dwell %g" dwell))
    pairs;
  let m = List.length pairs in
  let rates = Array.of_list (List.map fst pairs) in
  if m = 1 then uniform_load ~rate:rates.(0)
  else begin
    let switch = Array.make_matrix m m 0.0 in
    List.iteri
      (fun i (_, dwell) -> switch.(i).((i + 1) mod m) <- 1.0 /. dwell)
      pairs;
    { rates; switch }
  end

type measures = {
  expected_active : float;
  fleet_power : float;
  fleet_waiting : float;
  fleet_throughput : float;
  fleet_waiting_time : float;
}

type t = {
  spec : Spec.t;
  load : load;
  counts : int array;
  stay_cost : float array array;
  power_tbl : float array array;
  waiting_tbl : float array array;
  throughput_tbl : float array array;
  targets : int array;
  gain : float;
  iterations : int;
  stationary : float array;
  failures : ((int * float) * Dpm_robust.Error.t) list;
}

let validate_load load =
  let m = Array.length load.rates in
  if m = 0 then invalid_arg "Dpm_fleet.Cluster: load has no phases";
  Array.iter
    (fun r ->
      if (not (Float.is_finite r)) || r <= 0.0 then
        invalid_arg (Printf.sprintf "Dpm_fleet.Cluster: bad phase rate %g" r))
    load.rates;
  if Array.length load.switch <> m then
    invalid_arg "Dpm_fleet.Cluster: switch matrix dimension mismatch";
  Array.iteri
    (fun i row ->
      if Array.length row <> m then
        invalid_arg "Dpm_fleet.Cluster: switch matrix dimension mismatch";
      Array.iteri
        (fun j r ->
          if i <> j && ((not (Float.is_finite r)) || r < 0.0) then
            invalid_arg
              (Printf.sprintf "Dpm_fleet.Cluster: bad switch rate %g" r))
        row)
    load.switch

(* Stationary distribution of the closed-loop cluster chain.  The
   optimal policy can leave several counts absorbing (e.g. distinct
   phases settling at distinct counts with no phase coupling); in
   that case restrict to the forward closure of [start] — closed
   under transitions by construction — and solve there. *)
let stationary_of ?guard gen ~start =
  try Steady_state.solve ?guard gen
  with Steady_state.Not_irreducible _ ->
    let n = Generator.dim gen in
    let mark = Array.make n false in
    let stack = Stack.create () in
    Stack.push start stack;
    mark.(start) <- true;
    while not (Stack.is_empty stack) do
      let i = Stack.pop stack in
      Generator.iter_row gen i (fun j _ ->
          if not mark.(j) then begin
            mark.(j) <- true;
            Stack.push j stack
          end)
    done;
    let idx = ref [] in
    for i = n - 1 downto 0 do
      if mark.(i) then idx := i :: !idx
    done;
    let idx = Array.of_list !idx in
    let pos = Array.make n (-1) in
    Array.iteri (fun r i -> pos.(i) <- r) idx;
    let rates = ref [] in
    Array.iteri
      (fun r i ->
        Generator.iter_row gen i (fun j rate -> rates := (r, pos.(j), rate) :: !rates))
      idx;
    let sub = Generator.of_rates ~dim:(Array.length idx) !rates in
    let p = Steady_state.solve ?guard sub in
    let full = Array.make n 0.0 in
    Array.iteri (fun r i -> full.(i) <- p.(r)) idx;
    full

let solve ?domains ?guard spec ~load =
  validate_load load;
  let m_phases = Array.length load.rates in
  let n = Spec.num_servers spec in
  let ng = Spec.num_groups spec in
  let kmin = spec.Spec.min_active in
  let nk = n - kmin + 1 in
  let counts = Array.init nk (fun i -> kmin + i) in
  let weight = spec.Spec.weight in
  (* Enumerate the distinct per-server solve jobs across every
     (phase, count) cell: (group, routed rate), deduplicated on the
     exact rate bits. *)
  let seen = Hashtbl.create 97 in
  let order = ref [] in
  for m = 0 to m_phases - 1 do
    for ki = 0 to nk - 1 do
      let k = counts.(ki) in
      for g = 0 to ng - 1 do
        if Spec.active_in_group spec ~active:k ~group:g > 0 then begin
          let rate = Spec.group_rate spec ~total_rate:load.rates.(m) ~active:k ~group:g in
          let key = (g, Int64.bits_of_float rate) in
          if not (Hashtbl.mem seen key) then begin
            Hashtbl.add seen key ();
            order := key :: !order
          end
        end
      done
    done
  done;
  let jobs = Array.of_list (List.rev !order) in
  let bases = Array.init ng (fun g -> Spec.base_system spec g) in
  let results =
    Dpm_par.parallel_map ?domains
      (fun ((g, bits) as key) ->
        ( key,
          Dpm_robust.Guard.run ~stage:"fleet.cluster" (fun _ ->
              Optimize.solve ~weight ?guard
                (Sys_model.with_arrival_rate bases.(g)
                   (Int64.float_of_bits bits))) ))
      jobs
  in
  let solved = Hashtbl.create 97 in
  let failures = ref [] in
  Array.iter
    (fun ((g, bits), res) ->
      match res with
      | Ok sol -> Hashtbl.replace solved (g, bits) sol
      | Error e -> failures := ((g, Int64.float_of_bits bits), e) :: !failures)
    results;
  let failures = List.rev !failures in
  (* Per-cell tables: weighted stay cost, electrical power, mean
     queue population, accepted throughput.  A failed solve prices
     its cells pessimistically but finitely (Model.create rejects
     infinite costs). *)
  let stay = Array.make_matrix m_phases nk 0.0 in
  let power = Array.make_matrix m_phases nk 0.0 in
  let waiting = Array.make_matrix m_phases nk 0.0 in
  let throughput = Array.make_matrix m_phases nk 0.0 in
  for m = 0 to m_phases - 1 do
    for ki = 0 to nk - 1 do
      let k = counts.(ki) in
      for g = 0 to ng - 1 do
        let gr = spec.Spec.groups.(g) in
        let n_act = Spec.active_in_group spec ~active:k ~group:g in
        let n_off = float_of_int (gr.Spec.count - n_act) in
        stay.(m).(ki) <- stay.(m).(ki) +. (n_off *. gr.Spec.off_power);
        power.(m).(ki) <- power.(m).(ki) +. (n_off *. gr.Spec.off_power);
        if n_act > 0 then begin
          let rate = Spec.group_rate spec ~total_rate:load.rates.(m) ~active:k ~group:g in
          let fa = float_of_int n_act in
          match Hashtbl.find_opt solved (g, Int64.bits_of_float rate) with
          | Some sol ->
              let mt = sol.Optimize.metrics in
              (* The per-server gain prices power and delay
                 (Eqn. 3.1); the cluster additionally prices shed
                 traffic, else overload is "optimally" absorbed by
                 rejection and the policy parks at min_active. *)
              stay.(m).(ki) <-
                stay.(m).(ki)
                +. (fa
                   *. (sol.Optimize.gain
                      +. (spec.Spec.loss_penalty *. mt.Analytic.loss_rate)));
              power.(m).(ki) <- power.(m).(ki) +. (fa *. mt.Analytic.power);
              waiting.(m).(ki) <-
                waiting.(m).(ki) +. (fa *. mt.Analytic.avg_waiting_requests);
              throughput.(m).(ki) <-
                throughput.(m).(ki) +. (fa *. mt.Analytic.throughput)
          | None ->
              (* Pessimistic but finite: full draw, full queue, and
                 every routed request lost. *)
              let penalty =
                Spec.max_power spec g
                +. (weight *. float_of_int gr.Spec.queue_capacity)
                +. (spec.Spec.loss_penalty *. rate)
              in
              stay.(m).(ki) <- stay.(m).(ki) +. (fa *. penalty);
              power.(m).(ki) <- power.(m).(ki) +. (fa *. Spec.max_power spec g);
              waiting.(m).(ki) <-
                waiting.(m).(ki) +. (fa *. float_of_int gr.Spec.queue_capacity)
        end
      done
    done
  done;
  (* The birth-death CTMDP over (phase, count). *)
  let num_states = m_phases * nk in
  let sid m ki = (m * nk) + ki in
  let boot_rate = spec.Spec.boot_rate in
  let shutdown_rate = spec.Spec.shutdown_rate in
  let model =
    Model.create ~num_states (fun s ->
        let m = s / nk and ki = s mod nk in
        let k = counts.(ki) in
        let phase_rates = ref [] in
        for m' = m_phases - 1 downto 0 do
          if m' <> m && load.switch.(m).(m') > 0.0 then
            phase_rates := (sid m' ki, load.switch.(m).(m')) :: !phase_rates
        done;
        let choice target =
          let rates, extra =
            if target > k then
              ( (sid m (ki + 1), boot_rate) :: !phase_rates,
                boot_rate *. spec.Spec.boot_energy )
            else if target < k then
              ( (sid m (ki - 1), shutdown_rate) :: !phase_rates,
                shutdown_rate *. spec.Spec.shutdown_energy )
            else (!phase_rates, 0.0)
          in
          { Model.action = target; rates; cost = stay.(m).(ki) +. extra }
        in
        let targets =
          (if ki > 0 then [ k - 1 ] else [])
          @ [ k ]
          @ (if ki + 1 < nk then [ k + 1 ] else [])
        in
        List.map choice targets)
  in
  (* Warm start from the drain-toward-static-optimum policy: it is
     unichain (every phase funnels into one count), which keeps the
     first evaluation well-posed; stay-everywhere inits are
     multichain. *)
  let score ki =
    let acc = ref 0.0 in
    for m = 0 to m_phases - 1 do
      acc := !acc +. stay.(m).(ki)
    done;
    !acc
  in
  let kstar_i = ref 0 in
  for ki = 1 to nk - 1 do
    if score ki < score !kstar_i then kstar_i := ki
  done;
  let init_actions =
    Array.init num_states (fun s ->
        let ki = s mod nk in
        let k = counts.(ki) in
        if ki > !kstar_i then k - 1 else if ki < !kstar_i then k + 1 else k)
  in
  let init = Policy.of_actions model init_actions in
  let res = Pi.solve ?guard ~init model in
  let targets = Policy.actions model res.Pi.policy in
  (* Settle point of phase 0 under the optimal policy — the start
     state for the reachability fallback when the closed-loop chain
     has several closed classes. *)
  let settle_ki =
    let ki = ref !kstar_i in
    let steps = ref 0 in
    let moving = ref true in
    while !moving && !steps <= nk do
      let k = counts.(!ki) in
      let tgt = targets.(sid 0 !ki) in
      if tgt > k then incr ki else if tgt < k then decr ki else moving := false;
      incr steps
    done;
    !ki
  in
  let gen = Policy.generator model res.Pi.policy in
  let stationary = stationary_of ?guard gen ~start:(sid 0 settle_ki) in
  { spec; load; counts; stay_cost = stay; power_tbl = power;
    waiting_tbl = waiting; throughput_tbl = throughput; targets;
    gain = res.Pi.gain; iterations = res.Pi.iterations; stationary; failures }

let num_phases t = Array.length t.load.rates

let target t ~phase ~active =
  let nk = Array.length t.counts in
  let kmin = t.counts.(0) in
  if phase < 0 || phase >= num_phases t then
    invalid_arg "Dpm_fleet.Cluster.target: bad phase";
  if active < kmin || active > t.counts.(nk - 1) then
    invalid_arg "Dpm_fleet.Cluster.target: bad count";
  t.targets.((phase * nk) + (active - kmin))

let static_best t ~phase =
  if phase < 0 || phase >= num_phases t then
    invalid_arg "Dpm_fleet.Cluster.static_best: bad phase";
  let best = ref 0 in
  Array.iteri
    (fun ki _ -> if t.stay_cost.(phase).(ki) < t.stay_cost.(phase).(!best) then best := ki)
    t.counts;
  t.counts.(!best)

let settle t ~phase ~from =
  let nk = Array.length t.counts in
  let kmin = t.counts.(0) in
  let k = ref (max kmin (min t.counts.(nk - 1) from)) in
  let steps = ref 0 in
  let moving = ref true in
  while !moving && !steps <= nk do
    let tgt = target t ~phase ~active:!k in
    if tgt > !k then incr k else if tgt < !k then decr k else moving := false;
    incr steps
  done;
  !k

let measures t =
  let nk = Array.length t.counts in
  let ea = ref 0.0 and pw = ref 0.0 and wt = ref 0.0 and tp = ref 0.0 in
  Array.iteri
    (fun s pi ->
      if pi > 0.0 then begin
        let m = s / nk and ki = s mod nk in
        let k = t.counts.(ki) in
        let tgt = t.targets.(s) in
        let trans =
          if tgt > k then t.spec.Spec.boot_rate *. t.spec.Spec.boot_energy
          else if tgt < k then
            t.spec.Spec.shutdown_rate *. t.spec.Spec.shutdown_energy
          else 0.0
        in
        ea := !ea +. (pi *. float_of_int k);
        pw := !pw +. (pi *. (t.power_tbl.(m).(ki) +. trans));
        wt := !wt +. (pi *. t.waiting_tbl.(m).(ki));
        tp := !tp +. (pi *. t.throughput_tbl.(m).(ki))
      end)
    t.stationary;
  {
    expected_active = !ea;
    fleet_power = !pw;
    fleet_waiting = !wt;
    fleet_throughput = !tp;
    fleet_waiting_time = (if !tp > 0.0 then !wt /. !tp else 0.0);
  }
