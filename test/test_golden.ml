(* Golden regression pins for the paper instance (Table 2/3 regime):
   the optimal gain, the separated power/delay metrics, and the exact
   per-state policy at representative weights.  The values below were
   produced by this repository's own solver; the test exists so a
   future refactor (solver, model builder, cache, warm starts) cannot
   silently drift the reproduction.  Tolerances are 1e-9 — far below
   physical meaning, far above float noise; the policies must match
   exactly. *)

open Dpm_core

(* (weight, gain, power, avg_waiting_requests, actions per state) *)
let pins =
  [
    ( 0.1,
      9.3400113186191298,
      8.9102056215808325,
      4.2980569703829472,
      [| 0; 0; 0; 0; 0; 0; 2; 2; 2; 2; 2; 0; 2; 2; 2; 2; 2; 0; 1; 1; 1; 1; 1 |]
    );
    ( 1.0,
      11.951281331062688,
      10.959834108007252,
      0.99144722305543909,
      [| 0; 0; 0; 0; 0; 0; 2; 0; 0; 0; 2; 0; 2; 2; 0; 0; 2; 0; 1; 0; 0; 0; 0 |]
    );
    ( 5.0,
      14.352171865899177,
      11.803888142719996,
      0.50965674463583766,
      [| 0; 0; 0; 0; 0; 0; 2; 0; 0; 0; 0; 0; 2; 0; 0; 0; 0; 0; 1; 0; 0; 0; 0 |]
    );
    ( 20.0,
      21.997023035436758,
      11.803888142719996,
      0.50965674463583766,
      [| 0; 0; 0; 0; 0; 0; 2; 0; 0; 0; 0; 0; 2; 0; 0; 0; 0; 0; 1; 0; 0; 0; 0 |]
    );
    ( 100.0,
      62.612288673740295,
      12.166742453562815,
      0.5044554622017744,
      [| 0; 0; 0; 0; 0; 0; 2; 0; 0; 0; 0; 0; 2; 0; 1; 1; 1; 1; 1; 0; 0; 0; 0 |]
    );
  ]

let paper_instance_pins () =
  (* Cold solves: the pins must hold independently of cache state. *)
  Dpm_cache.Solve_cache.with_capacity 0 @@ fun () ->
  let sys = Paper_instance.system () in
  Alcotest.(check int) "state count" 23 (Sys_model.num_states sys);
  List.iter
    (fun (weight, gain, power, waiting, actions) ->
      let s = Optimize.solve ~weight sys in
      Test_util.check_close ~tol:1e-9
        (Printf.sprintf "gain at w=%g" weight)
        gain s.Optimize.gain;
      Test_util.check_close ~tol:1e-9
        (Printf.sprintf "power at w=%g" weight)
        power s.Optimize.metrics.Analytic.power;
      Test_util.check_close ~tol:1e-9
        (Printf.sprintf "waiting at w=%g" weight)
        waiting s.Optimize.metrics.Analytic.avg_waiting_requests;
      if s.Optimize.actions <> actions then
        Alcotest.failf "policy drifted at w=%g: got [|%s|]" weight
          (String.concat "; "
             (Array.to_list (Array.map string_of_int s.Optimize.actions))))
    pins

let warm_path_matches_pins () =
  (* The same pins must hold when the answers come through the warm
     wavefront and then the cache — the two new result paths. *)
  Dpm_cache.Solve_cache.with_capacity 16 @@ fun () ->
  let sys = Paper_instance.system () in
  let weights = List.map (fun (w, _, _, _, _) -> w) pins in
  let check_sweep sols =
    List.iter2
      (fun (weight, gain, _, _, actions) (s : Optimize.solution) ->
        Test_util.check_close ~tol:1e-9
          (Printf.sprintf "sweep gain at w=%g" weight)
          gain s.Optimize.gain;
        if s.Optimize.actions <> actions then
          Alcotest.failf "sweep policy drifted at w=%g" weight)
      pins sols
  in
  check_sweep (Optimize.sweep sys ~weights);
  (* Second pass: served from the cache. *)
  check_sweep (Optimize.sweep sys ~weights);
  if not (Dpm_cache.Solve_cache.hit_ratio () > 0.0) then
    Alcotest.fail "second sweep did not hit the cache"

let suite =
  [
    Alcotest.test_case "paper-instance gains and policies" `Quick
      paper_instance_pins;
    Alcotest.test_case "warm/cached paths reproduce the pins" `Quick
      warm_path_matches_pins;
  ]
