(* fleet-day: the fleet planner and simulator.  Set-up is a cold
   cluster solve for 3 groups x 8 paper-SP servers (Q = 5, 6, 7) — the
   many-tiny-cold-solves pattern.  One op is one [Fleet_sim.run] over
   the seeded 3-phase plan with a fresh simulation seed: a warm re-plan
   (every per-server solve a cache hit) and then about 190k events
   through the event simulator, which no other workload touches.  The
   horizon is sized so simulation is about two thirds of an op of some
   65 ms. *)

module Spec = Dpm_fleet.Spec
module Cluster = Dpm_fleet.Cluster
module Deploy = Dpm_fleet.Deploy
module Fleet_sim = Dpm_fleet.Fleet_sim
module C = Common

(* Eight passes a run (see [Common.combine]), more than the other
   workloads make: its ops form one population, so a pass of some 40
   ops suffices.  About 11 ops per second on a 2-vCPU VM. *)
let passes = 8

let ops_per_second = 11
let ops_for ~seconds = max 4 (seconds * ops_per_second / passes)

let spec () =
  Spec.create ~weight:1.0 ~boot_rate:0.5 ~boot_energy:50.0 ~shutdown_rate:1.0
    ~shutdown_energy:10.0 ~min_active:2 ~loss_penalty:100.0
    (List.init 3 (fun i ->
         Spec.group
           ~name:(Printf.sprintf "tier%d" i)
           ~sp:(Dpm_core.Paper_instance.service_provider ())
           ~queue_capacity:(5 + i) ~count:8 ~off_power:0.1 ()))

let setup ~seed ~ops () =
  let spec = spec () and plan = Gen.fleet_plan ~seed ~ops in
  Dpm_cache.Solve_cache.clear ();
  let load = Cluster.cyclic_load (Gen.fleet_phases plan) in
  ignore (Cluster.solve ~domains:1 spec ~load : Cluster.t);
  (spec, plan)

let simulate spec (plan : Gen.fleet_plan) k =
  Fleet_sim.run ~domains:1 ~seed:plan.Gen.sim_seeds.(k) spec
    ~segments:plan.Gen.segments ~final_rate:plan.Gen.final_rate
    ~horizon:plan.Gen.horizon

(* [Fleet_sim.run] hides its planning layers: replay them on the op's
   plan exactly as it runs them — the cluster solve and the per-segment
   settle, then one deployment per segment. *)
let replay_plan spec (plan : Gen.fleet_plan) =
  let phases = Gen.fleet_phases plan in
  let actives, cluster_s =
    C.replay (fun () ->
        let c = Cluster.solve ~domains:1 spec ~load:(Cluster.cyclic_load phases) in
        let actives = Array.make (List.length phases) 0 in
        Array.iteri
          (fun j _ ->
            let from =
              if j = 0 then Cluster.static_best c ~phase:0 else actives.(j - 1)
            in
            actives.(j) <- Cluster.settle c ~phase:j ~from)
          actives;
        actives)
  in
  let (), deploy_s =
    C.replay (fun () ->
        ignore
          (List.fold_left
             (fun (j, prev) (rate, _) ->
               let d =
                 Deploy.resolve ~domains:1 ?prev spec ~total_rate:rate
                   ~active:actives.(j)
               in
               (j + 1, Some d))
             (0, None) phases
            : int * Deploy.t option))
  in
  (cluster_s, deploy_s)

let run ~traced ~seed ~ops () =
  let (spec, plan), before = C.setup_before (setup ~seed ~ops) in
  let latencies = Array.make ops 0.0 in
  let events = Array.make ops 0 in
  let failures = C.failures () in
  let reg = Dpm_obs.Metrics.create () in
  let cluster_s = ref 0.0 and deploy_s = ref 0.0 in
  let gc0 = C.gc_mark () in
  let t_start = C.now () in
  let body () =
    for k = 0 to ops - 1 do
      let c0 = Dpm_cache.Solve_cache.stats () in
      let t0 = C.now () in
      let r = C.span "op" (fun () -> simulate spec plan k) in
      latencies.(k) <- C.now () -. t0;
      let c1 = Dpm_cache.Solve_cache.stats () in
      events.(k) <- r.Fleet_sim.events;
      let hits = c1.Dpm_cache.Lru.hits - c0.Dpm_cache.Lru.hits in
      let misses = c1.Dpm_cache.Lru.misses - c0.Dpm_cache.Lru.misses in
      if r.Fleet_sim.generated <> r.Fleet_sim.accepted + r.Fleet_sim.lost then
        C.fail failures "op %d: generated %d <> accepted %d + lost %d" k
          r.Fleet_sim.generated r.Fleet_sim.accepted r.Fleet_sim.lost;
      if r.Fleet_sim.resolve_failures > 0 then
        C.fail failures "op %d: %d per-server solve failures" k
          r.Fleet_sim.resolve_failures;
      if misses > 0 || hits = 0 then
        C.fail failures "op %d: cache hit ratio %d/%d below 1.0" k hits
          (hits + misses);
      if traced then begin
        let c, d = replay_plan spec plan in
        cluster_s := !cluster_s +. c;
        deploy_s := !deploy_s +. d
      end
    done
  in
  C.observe ~traced reg body;
  let wall_s = C.now () -. t_start -. !cluster_s -. !deploy_s in
  let gc_alloc_mb_per_op, gc_major_per_op = C.gc_per_op ~from:gc0 ~ops in
  let peak_rss_mb = C.peak_rss_mb () in
  let setup_s = C.setup_median (setup ~seed ~ops) ~earlier:before in
  let total_events = Array.fold_left ( + ) 0 events in
  let layers =
    if not traced then []
    else
      let op_s = Array.fold_left ( +. ) 0.0 latencies in
      let sim_timer = C.timer reg "sim.run_seconds" in
      (* The simulation share is what is left of the op once the
         replayed planning layers are taken out. *)
      let sim_s = op_s -. !cluster_s -. !deploy_s in
      [
        ("trace.op_s", op_s);
        ("fleet.cluster_s", !cluster_s);
        ("fleet.deploy_s", !deploy_s);
        ("fleet.sim_s", sim_s);
        ("sim.events", float_of_int total_events);
        ("sim.events_per_s", C.ratio (float_of_int total_events) sim_timer);
        ("sim.decisions", C.counter reg "sim.decisions");
        ("sim.heap_depth_max", C.gauge reg "sim.heap_depth_max");
        ("unattributed_s", sim_s -. sim_timer);
      ]
      @ C.solver_layers reg
  in
  let sorted = Array.copy events in
  Array.sort compare sorted;
  {
    C.attempted = ops;
    failed = failures.C.count;
    failures = List.rev failures.C.lines;
    setup_s;
    wall_s;
    latencies;
    labels = Array.make ops "run";
    populations = [ ("run", ops) ];
    counts =
      [
        Printf.sprintf "events per op: min=%d median=%d max=%d total=%d"
          sorted.(0) sorted.(ops / 2) sorted.(ops - 1) total_events;
        Printf.sprintf "plan: rates=%s horizon=%.0f"
          (String.concat ","
             (List.map (fun (r, _) -> Printf.sprintf "%.6f" r) (Gen.fleet_phases plan)))
          plan.Gen.horizon;
      ];
    peak_rss_mb;
    gc_alloc_mb_per_op;
    gc_major_per_op;
    layers;
  }
