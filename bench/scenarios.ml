(* Scenario-library benchmark: the three workload families of
   lib/scenario solved end to end through the shared
   robust/cache/provenance stack, with the cross-checks that make the
   numbers trustworthy run as part of the gate.

   Three sweeps:
     - phased: the paper SP with its service time refit at fixed mean
       over an SCV ladder (Erlang through hyperexponential), weight 1;
     - polling: a 2-queue and a 3-queue polling system with
       switch-over times;
     - batching: the paper SYS with batch sizes 1..6 under a
       sublinearly scaling batch completion rate.

   Every solve is cross-checked against the GTH stationary gain of its
   own closed loop (a numerical path disjoint from policy iteration),
   and the two degenerate corners are pinned: Erlang-1 phased and
   batch-1 batching must be pure cache hits on the base paper system's
   entry, and the batch-1 gain must equal the golden weight-1 pin.

   Gauges land in bench_metrics.json under bench.scenario.*:
     bench.scenario.solve_wall_s     (all cold solves, lower better)
     bench.scenario.states_per_sec   (sum of state counts / wall, higher better)
     bench.scenario.cross_check_gap  (max relative PI-vs-GTH gap; informational)
     bench.scenario.phased_gain_scv4 (informational)
     bench.scenario.polling_gain_k3  (informational)
     bench.scenario.batching_gain_b6 (informational)
     bench.scenario.dedup_hits       (informational; gate = 2)
     bench.scenario.ok               (1 = all gates held) *)

open Dpm_core
module Phase_type = Dpm_scenario.Phase_type
module Phased = Dpm_scenario.Phased
module Polling = Dpm_scenario.Polling
module Batching = Dpm_scenario.Batching
module Solve = Dpm_scenario.Solve

let line = String.make 78 '-'
let header title = Printf.printf "\n%s\n%s\n%s\n" line title line

(* test_golden.ml's weight-1 pin for the paper instance; batch-1 under
   the device rate is the same decision process bit for bit, so its
   gain must reproduce this to solver tolerance. *)
let golden_gain_w1 = 11.951281331062688
let rel_gap a b = Float.abs (a -. b) /. Float.max 1.0 (Float.abs b)

let solve_checked label model =
  match Solve.solve model with
  | Error e ->
      failwith
        (Printf.sprintf "bench scenario %s: %s" label
           (Dpm_robust.Error.to_string e))
  | Ok s ->
      let gap = rel_gap (Solve.stationary_gain model ~actions:s.Solve.actions) s.Solve.gain in
      (s, gap)

let phased_ladder () =
  Printf.printf "phased: paper SP, service refit at mean %.2f (scv ladder)\n"
    (1.0 /. Paper_instance.service_rate);
  Printf.printf "  %-6s %-22s %7s %6s %16s\n" "scv" "distribution" "states"
    "iters" "gain";
  List.fold_left
    (fun (states, gap_acc, _last) scv ->
      let service =
        Phase_type.fit ~mean:(1.0 /. Paper_instance.service_rate) ~scv
      in
      let ph =
        Phased.create
          ~sp:(Paper_instance.service_provider ())
          ~queue_capacity:Paper_instance.queue_capacity
          ~arrival_rate:Paper_instance.arrival_rate ~service ()
      in
      let m = Phased.to_ctmdp ph ~weight:1.0 in
      let s, gap = solve_checked (Printf.sprintf "phased scv=%g" scv) m in
      Printf.printf "  %-6g %-22s %7d %6d %16.9f\n" scv
        (Phase_type.to_spec service)
        (Phased.num_states ph) s.Solve.iterations s.Solve.gain;
      (states + Phased.num_states ph, Float.max gap_acc gap, s.Solve.gain))
    (0, 0.0, nan)
    [ 0.25; 0.5; 1.0; 2.0; 4.0 ]

let polling_queue ~arrival_rate ~capacity ~weight =
  Polling.queue ~weight ~arrival_rate ~capacity
    ~service:(Phase_type.exp_ 1.0)
    ~switch_over:(Phase_type.exp_ 5.0)
    ()

let polling_pair () =
  Printf.printf "\npolling: K queues, exp switch-over, loss penalty 0.5\n";
  Printf.printf "  %-4s %7s %6s %16s  %s\n" "K" "states" "iters" "gain"
    "policy";
  List.fold_left
    (fun (states, gap_acc, _last) specs ->
      let p = Polling.create ~loss_penalty:0.5 specs in
      let m = Polling.to_ctmdp p in
      let k = Polling.num_queues p in
      let s, gap = solve_checked (Printf.sprintf "polling K=%d" k) m in
      let count pred = Array.fold_left (fun n a -> if pred a then n + 1 else n) 0 s.Solve.actions in
      Printf.printf "  %-4d %7d %6d %16.9f  serve %d | goto %d | sleep %d | stay %d\n"
        k (Polling.num_states p) s.Solve.iterations s.Solve.gain
        (count (fun a -> a = Polling.action_serve p))
        (count (fun a -> a >= 1 && a <= k))
        (count (fun a -> a = Polling.action_sleep p))
        (count (fun a -> a = Polling.action_stay));
      (states + Polling.num_states p, Float.max gap_acc gap, s.Solve.gain))
    (0, 0.0, nan)
    [
      [
        polling_queue ~arrival_rate:0.25 ~capacity:3 ~weight:1.0;
        polling_queue ~arrival_rate:0.4 ~capacity:3 ~weight:2.0;
      ];
      [
        polling_queue ~arrival_rate:0.2 ~capacity:2 ~weight:1.0;
        polling_queue ~arrival_rate:0.3 ~capacity:2 ~weight:1.5;
        polling_queue ~arrival_rate:0.4 ~capacity:2 ~weight:2.0;
      ];
    ]

let batching_ladder () =
  Printf.printf "\nbatching: paper SYS, rate(b) = mu * b^0.7, energy 0.2/batch\n";
  Printf.printf "  %-4s %6s %16s %14s\n" "B" "iters" "gain" "largest batch";
  let sys = Paper_instance.system () in
  List.fold_left
    (fun (states, gap_acc, _last) max_batch ->
      let b =
        Batching.create ~sys ~max_batch
          ~service_rate:(fun k ->
            Paper_instance.service_rate *. (float_of_int k ** 0.7))
          ~batch_energy:(fun _ -> 0.2)
          ()
      in
      let m = Batching.to_ctmdp b ~weight:1.0 in
      let s, gap = solve_checked (Printf.sprintf "batching B=%d" max_batch) m in
      let largest =
        Array.fold_left
          (fun acc a -> max acc (Batching.batch_of_action b a))
          1 s.Solve.actions
      in
      Printf.printf "  %-4d %6d %16.9f %14d\n" max_batch s.Solve.iterations
        s.Solve.gain largest;
      ( states + Dpm_ctmdp.Model.num_states m,
        Float.max gap_acc gap,
        s.Solve.gain ))
    (0, 0.0, nan) [ 1; 2; 4; 6 ]

(* The exact degenerate encoding — batch cap 1, the device rate, no
   per-batch energy — is the paper decision process bit for bit, so
   its cold gain must reproduce test_golden's weight-1 pin. *)
let pinned_batch1_gain () =
  let b =
    Batching.create
      ~sys:(Paper_instance.system ())
      ~max_batch:1
      ~service_rate:(fun _ -> Paper_instance.service_rate)
      ()
  in
  let s, _ = solve_checked "batching pin" (Batching.to_ctmdp b ~weight:1.0) in
  s.Solve.gain

(* The structural-dedup corner: after warming the cache with the base
   paper solve, the two degenerate scenario encodings must land on the
   same fingerprint and come back as cache hits. *)
let dedup_hits () =
  Dpm_cache.Solve_cache.with_capacity 8 @@ fun () ->
  let sys = Paper_instance.system () in
  let _base = Optimize.solve ~weight:1.0 sys in
  let hit model =
    match Solve.solve model with
    | Ok s
      when s.Solve.provenance.Dpm_trace.Provenance.origin
           = Dpm_trace.Provenance.Cache_hit ->
        1
    | _ -> 0
  in
  let ph =
    Phased.create
      ~sp:(Paper_instance.service_provider ())
      ~queue_capacity:Paper_instance.queue_capacity
      ~arrival_rate:Paper_instance.arrival_rate
      ~service:(Phase_type.exp_ Paper_instance.service_rate)
      ()
  in
  let b =
    Batching.create ~sys ~max_batch:1
      ~service_rate:(fun _ -> Paper_instance.service_rate)
      ()
  in
  hit (Phased.to_ctmdp ph ~weight:1.0) + hit (Batching.to_ctmdp b ~weight:1.0)

let all () =
  header
    "SCENARIOS  phase-type / polling / batching families through the\n\
     shared solver stack, GTH cross-checked, degenerate corners pinned";
  (* Cold solves: the wall clock measures the solver, not the cache. *)
  let t0 = Unix.gettimeofday () in
  let ph_states, ph_gap, ph_gain_scv4 =
    Dpm_cache.Solve_cache.with_capacity 0 phased_ladder
  in
  let po_states, po_gap, po_gain_k3 =
    Dpm_cache.Solve_cache.with_capacity 0 polling_pair
  in
  let ba_states, ba_gap, ba_gain_b6 =
    Dpm_cache.Solve_cache.with_capacity 0 batching_ladder
  in
  let b1_gain = Dpm_cache.Solve_cache.with_capacity 0 pinned_batch1_gain in
  let solve_wall = Float.max 1e-9 (Unix.gettimeofday () -. t0) in
  let total_states = ph_states + po_states + ba_states in
  let states_per_sec = float_of_int total_states /. solve_wall in
  let cross_gap = Float.max ph_gap (Float.max po_gap ba_gap) in
  let hits = dedup_hits () in
  let pin_gap = rel_gap b1_gain golden_gain_w1 in
  let ok = cross_gap <= 1e-6 && pin_gap <= 1e-9 && hits = 2 in
  Printf.printf
    "\nwall: %.2f s for %d model-states (%.0f states/s)\n\
     cross-check: max |PI - GTH| relative gap %.3e (gate <= 1e-6)\n\
     degenerate corners: batch-1 vs golden pin gap %.3e, dedup hits %d/2 -> %s\n"
    solve_wall total_states states_per_sec cross_gap pin_gap hits
    (if ok then "OK" else "FAIL");
  Dpm_obs.Probe.set "bench.scenario.solve_wall_s" solve_wall;
  Dpm_obs.Probe.set "bench.scenario.states_per_sec" states_per_sec;
  Dpm_obs.Probe.set "bench.scenario.cross_check_gap" cross_gap;
  Dpm_obs.Probe.set "bench.scenario.phased_gain_scv4" ph_gain_scv4;
  Dpm_obs.Probe.set "bench.scenario.polling_gain_k3" po_gain_k3;
  Dpm_obs.Probe.set "bench.scenario.batching_gain_b6" ba_gain_b6;
  Dpm_obs.Probe.set "bench.scenario.dedup_hits" (float_of_int hits);
  Dpm_obs.Probe.set "bench.scenario.ok" (if ok then 1.0 else 0.0);
  ok
