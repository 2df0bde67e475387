(* Fleet-level tests: the hierarchical decomposition against the flat
   joint Kronecker oracle, cluster conservation laws, domain-count
   bit-identity of solves and simulations, solve-cache deduplication,
   and chaos degradation (incumbents survive injected solver
   failures).  The oracle discipline mirrors the PI=VI=LP property
   suite: two independent computations of the same measure must
   agree. *)

open Dpm_core
module Spec = Dpm_fleet.Spec
module Deploy = Dpm_fleet.Deploy
module Cluster = Dpm_fleet.Cluster
module Joint = Dpm_fleet.Joint
module Fleet_sim = Dpm_fleet.Fleet_sim
module Solve_cache = Dpm_cache.Solve_cache

let t = Alcotest.test_case

let bits = Int64.bits_of_float

let check_bits msg a b =
  if bits a <> bits b then
    Alcotest.failf "%s: %h <> %h (not bit-identical)" msg a b

(* A deterministic two-group fleet around the paper's SP: distinct
   queue capacities make the models structurally distinct. *)
let two_group_spec ?(count_a = 2) ?(count_b = 1) ?min_active () =
  let sp () = Paper_instance.service_provider () in
  Spec.create ~weight:1.0 ~boot_rate:0.5 ~boot_energy:20.0 ~shutdown_rate:1.0
    ~shutdown_energy:5.0 ?min_active
    [
      Spec.group ~name:"a" ~sp:(sp ()) ~queue_capacity:3 ~count:count_a
        ~off_power:0.1 ();
      Spec.group ~name:"b" ~sp:(sp ()) ~queue_capacity:5 ~count:count_b
        ~off_power:0.1 ~routing_weight:2.0 ();
    ]

(* Random fleets for the property tests: 1-2 groups of random SPs. *)
let spec_gen =
  QCheck2.Gen.(
    int_range 1 2 >>= fun ngroups ->
    list_repeat ngroups Test_random_systems.sp_gen >>= fun sps ->
    list_repeat ngroups (int_range 1 3) >>= fun qs ->
    list_repeat ngroups (int_range 1 3) >>= fun counts ->
    list_repeat ngroups (float_range 0.5 2.0) >>= fun rweights ->
    float_range 0.2 2.0 >>= fun weight ->
    float_range 0.0 10.0 >>= fun boot_e ->
    float_range 0.0 10.0 >>= fun shut_e ->
    let groups =
      List.mapi
        (fun i (((sp, q), c), rw) ->
          Spec.group
            ~name:(Printf.sprintf "g%d" i)
            ~sp ~queue_capacity:q ~count:c ~routing_weight:rw ~off_power:0.2 ())
        (List.combine
           (List.combine (List.combine sps qs) counts)
           rweights)
    in
    return
      (Spec.create ~weight ~boot_rate:0.7 ~boot_energy:boot_e
         ~shutdown_rate:0.9 ~shutdown_energy:shut_e groups))

let describe_spec spec =
  Format.asprintf "%a" Spec.pp spec

(* --- cluster: probability conservation + Little's law ------------ *)

let prop_cluster_conservation =
  Test_util.qtest ~count:20 ~print:(fun (s, _) -> describe_spec s)
    "cluster stationary conserves probability; fleet Little's law holds"
    QCheck2.Gen.(pair spec_gen (float_range 0.1 0.8))
    (fun (spec, per_server_rate) ->
      let n = Spec.num_servers spec in
      let rate = per_server_rate *. float_of_int n in
      (* A two-phase load exercises the phase-switch transitions. *)
      let load = Cluster.cyclic_load [ (rate, 50.0); (0.5 *. rate, 30.0) ] in
      let c = Cluster.solve ~domains:1 spec ~load in
      let total = Array.fold_left ( +. ) 0.0 c.Cluster.stationary in
      let nonneg = Array.for_all (fun p -> p >= -1e-12) c.Cluster.stationary in
      let m = Cluster.measures c in
      let little =
        Float.abs
          ((m.Cluster.fleet_waiting_time *. m.Cluster.fleet_throughput)
          -. m.Cluster.fleet_waiting)
        <= 1e-9 *. (1.0 +. m.Cluster.fleet_waiting)
      in
      (* Accepted throughput can never exceed the offered load. *)
      let offered =
        let nk = Array.length c.Cluster.counts in
        let acc = ref 0.0 in
        Array.iteri
          (fun s p -> acc := !acc +. (p *. load.Cluster.rates.(s / nk)))
          c.Cluster.stationary;
        !acc
      in
      let flow = m.Cluster.fleet_throughput <= offered +. 1e-9 in
      let bounded =
        m.Cluster.expected_active >= float_of_int spec.Spec.min_active -. 1e-9
        && m.Cluster.expected_active <= float_of_int n +. 1e-9
      in
      c.Cluster.failures = []
      && Float.abs (total -. 1.0) <= 1e-9
      && nonneg && little && flow && bounded)

(* --- hierarchical vs flat joint oracle --------------------------- *)

let two_server_gen =
  QCheck2.Gen.(
    pair Test_random_systems.sp_gen Test_random_systems.sp_gen
    >>= fun (spa, spb) ->
    pair (int_range 1 2) (int_range 1 2) >>= fun (qa, qb) ->
    float_range 0.3 1.5 >>= fun weight ->
    float_range 0.1 1.2 >>= fun rate ->
    return
      ( Spec.create ~weight ~min_active:2
          [
            Spec.group ~name:"a" ~sp:spa ~queue_capacity:qa ~count:1 ();
            Spec.group ~name:"b" ~sp:spb ~queue_capacity:qb ~count:1
              ~routing_weight:1.7 ();
          ],
        rate ))

let prop_hierarchical_matches_joint =
  Test_util.qtest ~count:20 ~print:(fun (s, r) ->
      Printf.sprintf "%s at rate %g" (describe_spec s) r)
    "2-server hierarchical solve = flat joint CTMDP oracle (<= 1e-6)"
    two_server_gen
    (fun (spec, rate) ->
      let d = Deploy.resolve ~domains:1 spec ~total_rate:rate ~active:2 in
      (* A failed per-server solve would make the comparison vacuous —
         treat it as a test failure, not a skip. *)
      d.Deploy.failures = []
      &&
      let j = Joint.build d in
      let pi = Joint.stationary j in
      let prod = Joint.product_stationary j in
      let linf =
        let acc = ref 0.0 in
        Array.iteri
          (fun x p -> acc := Float.max !acc (Float.abs (p -. prod.(x))))
          pi;
        !acc
      in
      let joint_gain = Joint.gain j pi in
      let hier_gain = Deploy.gain d in
      let gains =
        Float.abs (joint_gain -. hier_gain)
        <= 1e-6 *. (1.0 +. Float.abs hier_gain)
      in
      let marginals_ok =
        List.for_all
          (fun i ->
            let mg = Joint.marginal j pi ~server:i in
            let servers = Deploy.active_servers d in
            let local =
              match servers.(i).Deploy.solution with
              | Some sol ->
                  sol.Optimize.metrics.Analytic.state_probabilities
              | None -> Alcotest.fail "missing solution"
            in
            let acc = ref 0.0 in
            Array.iteri
              (fun x p -> acc := Float.max !acc (Float.abs (p -. local.(x))))
              mg;
            !acc <= 1e-6)
          [ 0; 1 ]
      in
      linf <= 1e-6 && gains && marginals_ok)

(* Two paper-SP servers at Q = 17 (71 states each): 5,041 joint
   states.  The joint generator is built as a sparse Kronecker sum, so
   the build and the banded stationary solve allocate O(n b) words for
   the half-bandwidth b of the chain's reverse Cuthill-McKee order
   (b = 290 here; about 4.0 M words in all).  Expanding the Kronecker
   sum densely would hold n^2 floats: 25.4 M words, 203 MB at this
   size, and 3.2 GB at the 20,000-state cap. *)
let joint_at_scale () =
  let spec =
    Spec.create ~weight:1.0 ~min_active:2
      [
        Spec.group ~name:"a" ~sp:(Paper_instance.service_provider ())
          ~queue_capacity:17 ~count:2 ();
      ]
  in
  let d = Deploy.resolve ~domains:1 spec ~total_rate:0.3 ~active:2 in
  Alcotest.(check int) "every server solved" 0 (List.length d.Deploy.failures);
  let before = Gc.allocated_bytes () in
  let j = Joint.build d in
  let pi = Joint.stationary j in
  let words = (Gc.allocated_bytes () -. before) /. 8.0 in
  let n = Joint.num_states j in
  let locals =
    Array.map
      (fun (s : Deploy.server) ->
        let sys = s.Deploy.sys in
        Sys_model.generator_of_actions sys ~actions:(fun x ->
            s.Deploy.actions.(Sys_model.index sys x)))
      (Deploy.active_servers d)
  in
  let dims = Joint.dims j in
  let strides = [| dims.(1); 1 |] in
  let o =
    Dpm_linalg.Band.rcm n (fun f ->
        for x = 0 to n - 1 do
          Array.iteri
            (fun i g ->
              let a = x / strides.(i) mod dims.(i) in
              Dpm_ctmc.Generator.iter_row g a (fun b _ ->
                  f x (x + ((b - a) * strides.(i)))))
            locals
        done)
  in
  (* Twice the band the stationary solve holds: n (2b + 1) floats. *)
  let band = float_of_int (n * ((2 * o.Dpm_linalg.Band.half_bandwidth) + 1)) in
  Alcotest.(check bool) "at least 5,000 joint states" true (n >= 5_000);
  if words > 2.0 *. band then
    Alcotest.failf "joint build and solve allocated %.0f words at %d states (budget %.0f)"
      words n (2.0 *. band);
  let prod = Joint.product_stationary j in
  let linf = ref 0.0 in
  Array.iteri (fun x p -> linf := Float.max !linf (Float.abs (p -. prod.(x)))) pi;
  if !linf > 1e-6 then
    Alcotest.failf "joint stationary differs from the product by %g" !linf

(* --- domain-count bit-identity ----------------------------------- *)

let cluster_domain_identity () =
  let spec = two_group_spec () in
  let load = Cluster.cyclic_load [ (0.9, 40.0); (0.3, 60.0) ] in
  let solve domains =
    Solve_cache.with_capacity 128 (fun () ->
        Cluster.solve ~domains spec ~load)
  in
  let r1 = solve 1 in
  List.iter
    (fun domains ->
      let r = solve domains in
      Alcotest.(check (array int))
        (Printf.sprintf "targets at %d domains" domains)
        r1.Cluster.targets r.Cluster.targets;
      check_bits (Printf.sprintf "gain at %d domains" domains) r1.Cluster.gain
        r.Cluster.gain;
      Array.iteri
        (fun m row ->
          Array.iteri
            (fun ki v ->
              check_bits
                (Printf.sprintf "stay_cost[%d][%d] at %d domains" m ki domains)
                v
                r.Cluster.stay_cost.(m).(ki))
            row)
        r1.Cluster.stay_cost;
      Array.iteri
        (fun s v ->
          check_bits
            (Printf.sprintf "stationary[%d] at %d domains" s domains)
            v r.Cluster.stationary.(s))
        r1.Cluster.stationary)
    [ 2; 4 ]

let fleet_sim_domain_identity () =
  let spec = two_group_spec () in
  let run domains =
    Solve_cache.with_capacity 128 (fun () ->
        Fleet_sim.run ~domains ~seed:7L spec
          ~segments:[ (60.0, 0.9); (140.0, 0.3) ]
          ~final_rate:0.6 ~horizon:240.0)
  in
  let r1 = run 1 in
  List.iter
    (fun domains ->
      let r = run domains in
      let ck name f = Alcotest.(check int) (Printf.sprintf "%s at %d domains" name domains) (f r1) (f r) in
      ck "generated" (fun r -> r.Fleet_sim.generated);
      ck "accepted" (fun r -> r.Fleet_sim.accepted);
      ck "lost" (fun r -> r.Fleet_sim.lost);
      ck "completed" (fun r -> r.Fleet_sim.completed);
      ck "switches" (fun r -> r.Fleet_sim.switches);
      ck "events" (fun r -> r.Fleet_sim.events);
      ck "cache hits" (fun r -> r.Fleet_sim.cache_hits);
      ck "cache misses" (fun r -> r.Fleet_sim.cache_misses);
      ck "resolve failures" (fun r -> r.Fleet_sim.resolve_failures);
      let cf name f =
        check_bits (Printf.sprintf "%s at %d domains" name domains) (f r1) (f r)
      in
      cf "server energy" (fun r -> r.Fleet_sim.server_energy_j);
      cf "off energy" (fun r -> r.Fleet_sim.off_energy_j);
      cf "cluster energy" (fun r -> r.Fleet_sim.cluster_energy_j);
      cf "avg power" (fun r -> r.Fleet_sim.avg_power_w);
      cf "mean sojourn" (fun r -> r.Fleet_sim.avg_waiting_time_s);
      cf "mean active" (fun r -> r.Fleet_sim.avg_active_servers);
      Alcotest.(check int)
        "plan shape" (Array.length r1.Fleet_sim.plan)
        (Array.length r.Fleet_sim.plan);
      Array.iteri
        (fun j (p1 : Fleet_sim.plan_segment) ->
          let p = r.Fleet_sim.plan.(j) in
          Alcotest.(check int)
            (Printf.sprintf "plan active[%d]" j)
            p1.Fleet_sim.seg_active p.Fleet_sim.seg_active)
        r1.Fleet_sim.plan;
      Array.iteri
        (fun i s1 ->
          match (s1, r.Fleet_sim.server_results.(i)) with
          | None, None -> ()
          | Some (a : Dpm_sim.Power_sim.result), Some b ->
              check_bits
                (Printf.sprintf "server %d avg power" i)
                a.Dpm_sim.Power_sim.avg_power b.Dpm_sim.Power_sim.avg_power;
              Alcotest.(check int)
                (Printf.sprintf "server %d completed" i)
                a.Dpm_sim.Power_sim.completed b.Dpm_sim.Power_sim.completed
          | _ -> Alcotest.failf "server %d simulated on one side only" i)
        r1.Fleet_sim.server_results)
    [ 2; 4 ]

(* --- solve-cache deduplication ----------------------------------- *)

let cache_dedup () =
  Solve_cache.with_capacity 64 @@ fun () ->
  let sp = Paper_instance.service_provider () in
  let n = 6 in
  let spec =
    Spec.create ~weight:1.0
      [ Spec.group ~name:"a" ~sp ~queue_capacity:5 ~count:n () ]
  in
  let s0 = Solve_cache.stats () in
  let d = Deploy.resolve ~domains:1 spec ~total_rate:1.2 ~active:n in
  let s1 = Solve_cache.stats () in
  Alcotest.(check int) "N identical servers cost one solve" 1
    (s1.Dpm_cache.Lru.misses - s0.Dpm_cache.Lru.misses);
  Alcotest.(check int) "and N-1 hits" (n - 1)
    (s1.Dpm_cache.Lru.hits - s0.Dpm_cache.Lru.hits);
  Alcotest.(check int) "no failures" 0 (List.length d.Deploy.failures);
  let servers = Deploy.active_servers d in
  Array.iter
    (fun (s : Deploy.server) ->
      Alcotest.(check (array int)) "identical servers share the policy"
        servers.(0).Deploy.actions s.Deploy.actions)
    servers

(* --- chaos: incumbents survive injected solver failure ----------- *)

let chaos_incumbent_survives () =
  (* A capacity-0 cache forces every solve through the guard — a
     cache hit would bypass the injected failure. *)
  Solve_cache.with_capacity 0 @@ fun () ->
  let spec = two_group_spec () in
  let prev = Deploy.resolve ~domains:1 spec ~total_rate:0.8 ~active:3 in
  Alcotest.(check int) "clean baseline" 0 (List.length prev.Deploy.failures);
  let old_env = Sys.getenv_opt "DPM_FAULTS" in
  Unix.putenv "DPM_FAULTS" "stall";
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "DPM_FAULTS" (Option.value old_env ~default:""))
    (fun () ->
      let plan =
        match Dpm_robust.Fault.of_env () with
        | Some p -> p
        | None -> Alcotest.fail "DPM_FAULTS not picked up"
      in
      (* The fence hands each resolve the plan's stall composed with
         an expired deadline; [Deploy.resolve] fences every server
         itself, so nothing escapes to this outer one. *)
      let under_faults f =
        match
          Dpm_robust.Guard.run ~stage:"fleet.chaos" ~faults:plan
            ~deadline_s:0.0 f
        with
        | Ok d -> d
        | Error e ->
            Alcotest.failf "a failure escaped Deploy.resolve: %s"
              (Dpm_robust.Error.to_string e)
      in
      let d =
        under_faults (fun guard ->
            Deploy.resolve ~domains:1 ~guard ~prev spec ~total_rate:1.1
              ~active:3)
      in
      (* Typed tally: every active server failed, all with deadline
         class. *)
      Alcotest.(check (list int))
        "every re-solve failed" [ 0; 1; 2 ]
        (List.map fst d.Deploy.failures);
      List.iter
        (fun (_, err) ->
          match err with
          | Dpm_robust.Error.Deadline_exceeded _ -> ()
          | e ->
              Alcotest.failf "unexpected error class: %s"
                (Dpm_robust.Error.to_string e))
        d.Deploy.failures;
      (* Incumbents survive in place. *)
      Array.iteri
        (fun i prev_s ->
          match (prev_s, d.Deploy.servers.(i)) with
          | None, None -> ()
          | Some (p : Deploy.server), Some s ->
              Alcotest.(check (array int))
                (Printf.sprintf "server %d keeps its incumbent policy" i)
                p.Deploy.actions s.Deploy.actions;
              Alcotest.(check bool)
                (Printf.sprintf "server %d marked stale" i)
                false s.Deploy.fresh
          | _ -> Alcotest.failf "server %d active set changed" i)
        prev.Deploy.servers;
      (* Without an incumbent the fallback is always-on, never a
         crash. *)
      let d2 =
        under_faults (fun guard ->
            Deploy.resolve ~domains:1 ~guard spec ~total_rate:1.1 ~active:3)
      in
      Alcotest.(check int) "fallbacks tallied too" 3
        (List.length d2.Deploy.failures);
      Array.iteri
        (fun i s ->
          match s with
          | None -> ()
          | Some (s : Deploy.server) ->
              Alcotest.(check bool)
                (Printf.sprintf "server %d has no trusted solution" i)
                true (s.Deploy.solution = None);
              let expected =
                Policies.actions_array s.Deploy.sys
                  (Policies.always_on s.Deploy.sys)
              in
              Alcotest.(check (array int))
                (Printf.sprintf "server %d pinned always-on" i)
                expected s.Deploy.actions)
        d2.Deploy.servers)

(* --- fleet simulation sanity ------------------------------------- *)

let fleet_sim_accounting () =
  let spec = two_group_spec () in
  let r =
    Solve_cache.with_capacity 128 (fun () ->
        Fleet_sim.run ~domains:1 ~seed:11L spec
          ~segments:[ (80.0, 1.0); (160.0, 0.25) ]
          ~final_rate:0.7 ~horizon:300.0)
  in
  Alcotest.(check int) "plan covers three stretches" 3
    (Array.length r.Fleet_sim.plan);
  Test_util.check_close ~tol:1e-12 "plan starts at 0" 0.0
    r.Fleet_sim.plan.(0).Fleet_sim.seg_from;
  Test_util.check_close ~tol:1e-12 "plan ends at the horizon" 300.0
    r.Fleet_sim.plan.(2).Fleet_sim.seg_until;
  Alcotest.(check int) "arrival conservation" r.Fleet_sim.generated
    (r.Fleet_sim.accepted + r.Fleet_sim.lost);
  Alcotest.(check bool) "completions within acceptances" true
    (r.Fleet_sim.completed <= r.Fleet_sim.accepted);
  Alcotest.(check bool) "absorbed a real workload" true
    (r.Fleet_sim.generated > 50);
  Alcotest.(check int) "event count composition" r.Fleet_sim.events
    (r.Fleet_sim.generated + r.Fleet_sim.completed + r.Fleet_sim.switches);
  Alcotest.(check bool) "tier energies are nonnegative" true
    (r.Fleet_sim.server_energy_j >= 0.0
    && r.Fleet_sim.off_energy_j >= 0.0
    && r.Fleet_sim.cluster_energy_j >= 0.0);
  Alcotest.(check bool) "mean active within bounds" true
    (r.Fleet_sim.avg_active_servers >= 1.0 -. 1e-9
    && r.Fleet_sim.avg_active_servers <= 3.0 +. 1e-9);
  (* Every simulated server ran the full horizon: per-tier accounting
     splits the whole rectangle [0,horizon] x servers. *)
  Array.iter
    (function
      | None -> ()
      | Some (sr : Dpm_sim.Power_sim.result) ->
          Test_util.check_close ~tol:1e-6 "full-horizon server run" 300.0
            sr.Dpm_sim.Power_sim.duration)
    r.Fleet_sim.server_results;
  Alcotest.(check int) "no solve failures" 0 r.Fleet_sim.resolve_failures;
  (* The cluster table warms the cache, so the deploy phase must be
     hit-dominated: ratio >= (N - k) / N for k distinct models. *)
  let n = r.Fleet_sim.cache_hits + r.Fleet_sim.cache_misses in
  Alcotest.(check bool) "deploy phase is cache-hit dominated" true
    (n = 0
    || float_of_int r.Fleet_sim.cache_hits /. float_of_int n >= 1.0 /. 3.0)

(* --- zero-rate piecewise workloads (fleet routing) --------------- *)

let zero_rate_piecewise () =
  let rng = Test_util.rng () in
  let w =
    Dpm_sim.Workload.piecewise
      ~segments:[ (10.0, 1.5); (20.0, 0.0); (30.0, 2.0) ]
      ~final_rate:0.0
  in
  let rec drain now acc =
    match Dpm_sim.Workload.next_arrival w rng ~now with
    | None -> List.rev acc
    | Some t -> drain t (t :: acc)
  in
  let arrivals = drain 0.0 [] in
  Alcotest.(check bool) "stream produced arrivals" true (arrivals <> []);
  List.iter
    (fun t ->
      if (t >= 10.0 && t < 20.0) || t >= 30.0 then
        Alcotest.failf "arrival %g inside a silent window" t)
    arrivals;
  (* All-quiet workload: the stream is empty, not an infinite loop. *)
  let silent =
    Dpm_sim.Workload.piecewise ~segments:[ (5.0, 0.0) ] ~final_rate:0.0
  in
  Alcotest.(check bool) "all-quiet stream ends immediately" true
    (Dpm_sim.Workload.next_arrival silent rng ~now:0.0 = None);
  (* Negative rates stay rejected. *)
  Test_util.check_raises_invalid "negative rate" (fun () ->
      ignore
        (Dpm_sim.Workload.piecewise ~segments:[ (1.0, -0.5) ] ~final_rate:1.0))

(* --- spec validation --------------------------------------------- *)

let spec_validation () =
  let sp = Paper_instance.service_provider () in
  let g = Spec.group ~name:"a" ~sp ~queue_capacity:5 ~count:2 () in
  Test_util.check_raises_invalid "empty fleet" (fun () ->
      ignore (Spec.create []));
  Test_util.check_raises_invalid "duplicate names" (fun () ->
      ignore (Spec.create [ g; g ]));
  Test_util.check_raises_invalid "min_active too large" (fun () ->
      ignore (Spec.create ~min_active:3 [ g ]));
  Test_util.check_raises_invalid "zero count" (fun () ->
      ignore (Spec.group ~name:"x" ~sp ~queue_capacity:5 ~count:0 ()));
  let spec = Spec.create [ g ] in
  Test_util.check_raises_invalid "bad active" (fun () ->
      ignore (Deploy.resolve ~domains:1 spec ~total_rate:1.0 ~active:3));
  Test_util.check_raises_invalid "bad rate" (fun () ->
      ignore (Deploy.resolve ~domains:1 spec ~total_rate:0.0 ~active:1));
  (* Routing: one active server takes the whole stream, exactly. *)
  check_bits "single active server gets the full rate" 0.7
    (Spec.server_rate spec ~total_rate:0.7 ~active:1 ~server:0);
  Test_util.check_close ~tol:1e-12 "off server gets nothing" 0.0
    (Spec.server_rate spec ~total_rate:0.7 ~active:1 ~server:1)

let suite =
  [
    t "spec validation and routing" `Quick spec_validation;
    prop_cluster_conservation;
    prop_hierarchical_matches_joint;
    t "joint oracle at 5,041 states" `Quick joint_at_scale;
    t "cluster solve is domain-count bit-identical" `Quick
      cluster_domain_identity;
    t "fleet simulation is domain-count bit-identical" `Slow
      fleet_sim_domain_identity;
    t "N identical servers: 1 miss, N-1 hits" `Quick cache_dedup;
    t "chaos: incumbents survive injected solve failure" `Quick
      chaos_incumbent_survives;
    t "fleet simulation per-tier accounting" `Quick fleet_sim_accounting;
    t "zero-rate piecewise workload" `Quick zero_rate_piecewise;
  ]
