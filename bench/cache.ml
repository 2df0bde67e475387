(* Cold-vs-warm benchmark of the Dpm_cache layer on the paper
   instance: (1) the warm-start wavefront's iteration savings on an
   11-point weight sweep, with capacity 0 so memoization cannot mask
   the warm-start effect, and (2) the memoized repeat of the same
   sweep against a bounded cache, which must be (almost) all hits.

   Gauges land in bench_metrics.json under bench.cache.*:
     bench.cache.sweep.{cold,warm}.pi_iterations
     bench.cache.sweep.{cold,warm}.seconds
     bench.cache.sweep.iteration_reduction      (fraction, 0..1)
     bench.cache.sweep.identical                (1 = same policies)
     bench.cache.sweep.max_gain_delta
     bench.cache.{hits,misses,hit_ratio,repeat_speedup} *)

open Dpm_core

let line = String.make 78 '-'
let header title = Printf.printf "\n%s\n%s\n%s\n" line title line

let time_it f =
  let start = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. start)

(* An 11-point geometric ladder over the same 0.1..500 span as
   Optimize.default_weights. *)
let weights =
  List.init 11 (fun k ->
      0.1 *. ((500.0 /. 0.1) ** (float_of_int k /. 10.0)))

let total_iterations sols =
  List.fold_left
    (fun acc (s : Optimize.solution) -> acc + s.Optimize.iterations)
    0 sols

let all () =
  header
    "CACHE  warm-started vs cold weight sweep (11-point ladder), then a\n\
     memoized repeat sweep against a 64-entry cache";
  let sys = Paper_instance.system () in
  let cold, t_cold =
    Dpm_cache.Solve_cache.with_capacity 0 (fun () ->
        time_it (fun () -> Optimize.sweep ~warm:false sys ~weights))
  in
  let warm, t_warm =
    Dpm_cache.Solve_cache.with_capacity 0 (fun () ->
        time_it (fun () -> Optimize.sweep sys ~weights))
  in
  let it_cold = total_iterations cold and it_warm = total_iterations warm in
  let reduction = 1.0 -. (float_of_int it_warm /. float_of_int it_cold) in
  let max_gain_delta =
    List.fold_left2
      (fun acc (c : Optimize.solution) (w : Optimize.solution) ->
        Float.max acc (Float.abs (c.Optimize.gain -. w.Optimize.gain)))
      0.0 cold warm
  in
  let identical =
    List.for_all2
      (fun (c : Optimize.solution) (w : Optimize.solution) ->
        c.Optimize.actions = w.Optimize.actions)
      cold warm
  in
  Printf.printf "%-28s %10s %10s\n" "" "cold" "warm";
  Printf.printf "%-28s %10d %10d\n" "total PI iterations" it_cold it_warm;
  Printf.printf "%-28s %10.4f %10.4f\n" "wall time (s)" t_cold t_warm;
  Printf.printf
    "iteration reduction %.1f%%; policies identical: %s; max |gain delta| = \
     %.2e\n"
    (100.0 *. reduction)
    (if identical then "yes" else "NO")
    max_gain_delta;
  Dpm_obs.Probe.set "bench.cache.sweep.cold.pi_iterations"
    (float_of_int it_cold);
  Dpm_obs.Probe.set "bench.cache.sweep.warm.pi_iterations"
    (float_of_int it_warm);
  Dpm_obs.Probe.set "bench.cache.sweep.cold.seconds" t_cold;
  Dpm_obs.Probe.set "bench.cache.sweep.warm.seconds" t_warm;
  Dpm_obs.Probe.set "bench.cache.sweep.iteration_reduction" reduction;
  Dpm_obs.Probe.set "bench.cache.sweep.identical"
    (if identical then 1.0 else 0.0);
  Dpm_obs.Probe.set "bench.cache.sweep.max_gain_delta" max_gain_delta;
  Dpm_cache.Solve_cache.with_capacity 64 (fun () ->
      let _, t_first = time_it (fun () -> Optimize.sweep sys ~weights) in
      let _, t_second = time_it (fun () -> Optimize.sweep sys ~weights) in
      let s = Dpm_cache.Solve_cache.stats () in
      let ratio = Dpm_cache.Solve_cache.hit_ratio () in
      Printf.printf
        "memoized repeat sweep: %.4fs then %.4fs  (hits=%d misses=%d hit \
         ratio %.2f)\n"
        t_first t_second s.Dpm_cache.Lru.hits s.Dpm_cache.Lru.misses ratio;
      Dpm_obs.Probe.set "bench.cache.hits" (float_of_int s.Dpm_cache.Lru.hits);
      Dpm_obs.Probe.set "bench.cache.misses"
        (float_of_int s.Dpm_cache.Lru.misses);
      Dpm_obs.Probe.set "bench.cache.hit_ratio" ratio;
      Dpm_obs.Probe.set "bench.cache.repeat_speedup"
        (t_first /. Float.max 1e-9 t_second));
  identical
