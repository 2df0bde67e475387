(* Fleet-scale benchmark: the full hierarchical pipeline at data-center
   size.  120 servers in 3 heterogeneous groups (the paper SP with
   three different queue capacities, so exactly 3 distinct per-server
   models per arrival rate), a 3-phase day/night arrival plan sized to
   push more than a million arrivals through the event simulator, and
   per-tier energy accounting from the PR-5 segment summaries.

   The dedup claim is load-bearing: the cluster table warms every
   distinct (group, routed-rate) solve, so the deploy phase must be
   pure cache hits — ratio >= (N - k) / N for k distinct models, and
   in practice 1.0.

   Gauges land in bench_metrics.json under bench.fleet.*:
     bench.fleet.events_per_second (sim events / sim wall, higher better)
     bench.fleet.cache_hit_ratio   (deploy-phase dedup, higher better)
     bench.fleet.solve_wall_s      (cluster + deploy solves, lower better)
     bench.fleet.sim_wall_s        (event simulation, lower better)
     bench.fleet.arrivals          (informational; gate >= 1e6)
     bench.fleet.servers           (informational; gate >= 100)
     bench.fleet.server_energy_j   (informational)
     bench.fleet.off_energy_j      (informational)
     bench.fleet.cluster_energy_j  (informational)
     bench.fleet.ok                (1 = all gates held) *)

open Dpm_core
module Spec = Dpm_fleet.Spec
module Cluster = Dpm_fleet.Cluster
module Fleet_sim = Dpm_fleet.Fleet_sim

let line = String.make 78 '-'
let header title = Printf.printf "\n%s\n%s\n%s\n" line title line
let num_servers = 120
let distinct_models = 3
let horizon = 60_000.0

let spec () =
  let per_group = num_servers / distinct_models in
  Spec.create ~weight:1.0 ~boot_rate:0.5 ~boot_energy:50.0 ~shutdown_rate:1.0
    ~shutdown_energy:10.0 ~min_active:4 ~loss_penalty:100.0
    (List.init distinct_models (fun i ->
         Spec.group
           ~name:(Printf.sprintf "tier%d" i)
           ~sp:(Paper_instance.service_provider ())
           ~queue_capacity:(Paper_instance.queue_capacity + i)
           ~count:per_group ~off_power:0.1 ()))

let all () =
  header
    (Printf.sprintf
       "FLEET  hierarchical %d-server simulation: cluster CTMDP over a\n\
        3-phase arrival plan, cached per-server solves, >1e6 arrivals"
       num_servers);
  let spec = spec () in
  let segments = [ (24_000.0, 25.0); (42_000.0, 10.0) ] in
  let final_rate = 20.0 in
  (* Expected offered load: 25*24k + 10*18k + 20*18k = 1.14e6.  A
     scoped cache big enough for every distinct (group, routed-rate)
     job in the cluster table — the global default (512) would evict
     mid-warmup at this fleet size and poison the dedup measurement. *)
  Dpm_cache.Solve_cache.with_capacity 4096 @@ fun () ->
  (* Cold hierarchical solve: every distinct per-server model plus the
     cluster CTMDP itself. *)
  let s0 = Unix.gettimeofday () in
  let load =
    Cluster.cyclic_load [ (25.0, 24_000.0); (10.0, 18_000.0); (20.0, 18_000.0) ]
  in
  let c = Cluster.solve spec ~load in
  let solve_wall = Unix.gettimeofday () -. s0 in
  (* Warm full pipeline: the run's own cluster/deploy passes are now
     pure cache hits, so this wall clock is the event simulation. *)
  let t0 = Unix.gettimeofday () in
  let r = Fleet_sim.run ~seed:1L spec ~segments ~final_rate ~horizon in
  let sim_wall = Float.max 1e-9 (Unix.gettimeofday () -. t0) in
  let total_wall = solve_wall +. sim_wall in
  let events_per_second = float_of_int r.Fleet_sim.events /. sim_wall in
  let lookups = r.Fleet_sim.cache_hits + r.Fleet_sim.cache_misses in
  let hit_ratio =
    if lookups = 0 then 0.0
    else float_of_int r.Fleet_sim.cache_hits /. float_of_int lookups
  in
  let floor =
    float_of_int (num_servers - distinct_models) /. float_of_int num_servers
  in
  let conserved = r.Fleet_sim.generated = r.Fleet_sim.accepted + r.Fleet_sim.lost in
  let ok =
    r.Fleet_sim.generated >= 1_000_000
    && r.Fleet_sim.num_servers >= 100
    && hit_ratio >= floor
    && r.Fleet_sim.resolve_failures = 0
    && conserved
    && c.Cluster.failures = []
  in
  Format.printf "%a" Fleet_sim.pp r;
  Printf.printf
    "wall: %.2f s total (%.2f s cold solve, %.2f s warm sim) -> %.0f events/s\n\
     dedup: %d hits / %d misses (ratio %.4f, floor %.4f)  -> %s\n"
    total_wall solve_wall sim_wall events_per_second r.Fleet_sim.cache_hits
    r.Fleet_sim.cache_misses hit_ratio floor
    (if ok then "OK" else "FAIL");
  Dpm_obs.Probe.set "bench.fleet.events_per_second" events_per_second;
  Dpm_obs.Probe.set "bench.fleet.cache_hit_ratio" hit_ratio;
  Dpm_obs.Probe.set "bench.fleet.solve_wall_s" solve_wall;
  Dpm_obs.Probe.set "bench.fleet.sim_wall_s" sim_wall;
  Dpm_obs.Probe.set "bench.fleet.arrivals" (float_of_int r.Fleet_sim.generated);
  Dpm_obs.Probe.set "bench.fleet.servers" (float_of_int r.Fleet_sim.num_servers);
  Dpm_obs.Probe.set "bench.fleet.server_energy_j" r.Fleet_sim.server_energy_j;
  Dpm_obs.Probe.set "bench.fleet.off_energy_j" r.Fleet_sim.off_energy_j;
  Dpm_obs.Probe.set "bench.fleet.cluster_energy_j" r.Fleet_sim.cluster_energy_j;
  Dpm_obs.Probe.set "bench.fleet.ok" (if ok then 1.0 else 0.0);
  ok
