(* Adaptive-vs-static-vs-oracle comparison on a 3-segment drifting
   workload (pinned seed): the quantitative claim of the Dpm_adapt
   layer.  The adaptive controller must strictly beat the best single
   static CTMDP policy and land within 10% of the per-segment oracle.

   Gauges land in bench_metrics.json under bench.adapt.*:
     bench.adapt.cost.{adaptive,static_best,oracle}
     bench.adapt.cost.<label> for every entry
     bench.adapt.{resolves,policy_switches,resolve_failures}
     bench.adapt.adaptive_vs_static_gain   (fraction, > 0 = better)
     bench.adapt.oracle_gap                (fraction, < 0.10 wanted)
     bench.adapt.ok                        (1 = both criteria hold) *)

open Dpm_core
module H = Dpm_adapt.Harness

let line = String.make 78 '-'
let header title = Printf.printf "\n%s\n%s\n%s\n" line title line

(* Quiet (1/12), busy (1/3), settle (1/8): the same drift the
   examples use, long enough per phase for the 50-gap window to lock
   on even in the quiet phase (~330 expected quiet arrivals). *)
let segments = [ (4000.0, 1.0 /. 12.0); (8000.0, 1.0 /. 3.0) ]
let final_rate = 1.0 /. 8.0
let horizon = 12_000.0

let all () =
  header
    "ADAPT  adaptive vs static-optimal vs per-segment oracle on a\n\
     3-segment drifting workload (quiet 1/12 -> busy 1/3 -> 1/8)";
  let sys = Paper_instance.system () in
  let c =
    H.compare ~seed:7L ~weight:1.0 ~window:50 ~min_observations:30
      ~cooldown:150.0 ~sys ~segments ~final_rate ~horizon ()
  in
  Format.printf "%a@." H.pp c;
  let gain = (c.H.static_best.H.cost -. c.H.adaptive.H.cost) /. c.H.static_best.H.cost in
  let oracle_gap = (c.H.adaptive.H.cost -. c.H.oracle.H.cost) /. c.H.oracle.H.cost in
  let ok = gain > 0.0 && oracle_gap < 0.10 in
  Printf.printf
    "adaptive gain over best static: %.2f%%; gap to oracle: %.2f%%  -> %s\n"
    (100.0 *. gain) (100.0 *. oracle_gap)
    (if ok then "OK" else "FAIL");
  List.iter
    (fun (e : H.entry) ->
      Dpm_obs.Probe.set ("bench.adapt.cost." ^ e.H.label) e.H.cost)
    c.H.entries;
  Dpm_obs.Probe.set "bench.adapt.cost.adaptive" c.H.adaptive.H.cost;
  Dpm_obs.Probe.set "bench.adapt.cost.static_best" c.H.static_best.H.cost;
  Dpm_obs.Probe.set "bench.adapt.cost.oracle" c.H.oracle.H.cost;
  Dpm_obs.Probe.set "bench.adapt.resolves" (float_of_int c.H.resolves);
  Dpm_obs.Probe.set "bench.adapt.policy_switches"
    (float_of_int c.H.policy_switches);
  Dpm_obs.Probe.set "bench.adapt.resolve_failures"
    (float_of_int c.H.resolve_failures);
  Dpm_obs.Probe.set "bench.adapt.adaptive_vs_static_gain" gain;
  Dpm_obs.Probe.set "bench.adapt.oracle_gap" oracle_gap;
  Dpm_obs.Probe.set "bench.adapt.ok" (if ok then 1.0 else 0.0);
  ok
