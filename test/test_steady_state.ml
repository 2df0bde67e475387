open Dpm_linalg
open Dpm_ctmc

let t = Alcotest.test_case

let birth_death n lam mu =
  let rates = ref [] in
  for i = 0 to n - 2 do
    rates := (i, i + 1, lam) :: (i + 1, i, mu) :: !rates
  done;
  Generator.of_rates ~dim:n !rates

let mm1k_closed_form n lam mu =
  let rho = lam /. mu in
  Vec.normalize1 (Vec.init n (fun i -> rho ** float_of_int i))

let two_state_closed_form () =
  (* pi = (mu, lam) / (lam + mu) *)
  let g = Generator.of_rates ~dim:2 [ (0, 1, 1.0); (1, 0, 4.0) ] in
  let expected = [| 0.8; 0.2 |] in
  Test_util.check_vec ~tol:1e-12 "gth" expected (Steady_state.gth g);
  Test_util.check_vec ~tol:1e-12 "lu" expected (Steady_state.lu_solve g);
  Test_util.check_vec ~tol:1e-12 "solve" expected (Steady_state.solve g)

let mm1k_all_solvers () =
  let n = 9 and lam = 0.4 and mu = 1.1 in
  let g = birth_death n lam mu in
  let expected = mm1k_closed_form n lam mu in
  Test_util.check_vec ~tol:1e-12 "gth" expected (Steady_state.gth g);
  Test_util.check_vec ~tol:1e-10 "lu" expected (Steady_state.lu_solve g)

let transient_states_get_zero () =
  (* 0 -> 1 <-> 2: state 0 is transient. *)
  let g = Generator.of_rates ~dim:3 [ (0, 1, 1.0); (1, 2, 1.0); (2, 1, 1.0) ] in
  let p = Steady_state.solve g in
  Test_util.check_vec ~tol:1e-12 "mass on the closed pair" [| 0.0; 0.5; 0.5 |] p;
  Test_util.check_close ~tol:1e-12 "residual" 0.0 (Steady_state.residual g p)

let multichain_rejected () =
  let g = Generator.of_rates ~dim:4 [ (0, 1, 1.0); (1, 0, 1.0); (2, 3, 1.0); (3, 2, 1.0) ] in
  match Steady_state.solve g with
  | exception Steady_state.Not_irreducible _ -> ()
  | _ -> Alcotest.fail "expected Not_irreducible"

let stiff_rates_gth_stable () =
  (* Mix big-M (1e8) self-switch-style rates with small ones; GTH must
     keep full relative accuracy. *)
  let g =
    Generator.of_rates ~dim:4
      [ (0, 1, 0.1667); (1, 2, 1e8); (2, 3, 0.667); (3, 0, 0.9) ]
  in
  let p = Steady_state.gth g in
  (* Cycle chain: pi_i proportional to 1/exit_rate. *)
  let expected =
    Vec.normalize1 [| 1.0 /. 0.1667; 1e-8; 1.0 /. 0.667; 1.0 /. 0.9 |]
  in
  Test_util.check_vec ~tol:1e-12 "stiff cycle" expected p;
  (* The tiny-probability state must be right in *relative* terms,
     which subtractive elimination would lose. *)
  Test_util.check_relative ~rel:1e-10 "tiny state exact" expected.(1) p.(1)

let expected_value_reads_costs () =
  let p = [| 0.25; 0.75 |] in
  Test_util.check_close "expectation" 7.5
    (Steady_state.expected_value p (fun i -> if i = 0 then 0.0 else 10.0))

(* Deep chains: a 2000-state birth-death chain whose first state in the
   elimination order sits far down a geometric tail (rho^1999 is far
   outside the float range at either rho), checked against the closed
   form evaluated in log space. *)
let geometric_in_log_space n rho =
  let lr = Float.log rho in
  let top = if rho > 1.0 then float_of_int (n - 1) *. lr else 0.0 in
  let w = Vec.init n (fun i -> Float.exp ((float_of_int i *. lr) -. top)) in
  Vec.scale (1.0 /. Vec.sum w) w

(* Entrywise against a closed form: [abs] (default 1e-14) absolute
   everywhere, 1e-10 relative wherever the exact value is at least
   1e-280. *)
let check_closed_form ?(abs = 1e-14) name expected p =
  let abs_err = ref 0.0 and rel_err = ref 0.0 in
  Array.iteri
    (fun i e ->
      let d = Float.abs (p.(i) -. e) in
      abs_err := Float.max !abs_err d;
      if e >= 1e-280 then rel_err := Float.max !rel_err (d /. e))
    expected;
  if !abs_err > abs || !rel_err > 1e-10 then
    Alcotest.failf "%s: max abs error %g, max relative error %g" name !abs_err
      !rel_err

let deep_birth_death rho () =
  let n = 2000 in
  let g = birth_death n rho 1.0 in
  let expected = geometric_in_log_space n rho in
  List.iter
    (fun (name, p) ->
      check_closed_form (Printf.sprintf "%s at rho %g" name rho) expected p)
    [ ("solve", Steady_state.solve g); ("gth", Steady_state.gth g) ]

(* Two peaks around a valley far below the smallest float: a 2000-state
   birth-death chain, symmetric about its middle, with rho = 0.36
   towards state 0 on the first half and towards state 1999 on the
   second.  p(k) is proportional to rho^min(k, 1999 - k), so
   p(0) = p(1999) = 0.32; once the back substitution's measure
   underflows in the valley, the second peak must not be lost. *)
let two_peak_birth_death () =
  let n = 2000 and rho = 0.36 in
  let rates = ref [] in
  for i = 0 to n - 2 do
    let up, down =
      if 2 * (i + 1) < n then (rho, 1.0)
      else if 2 * (i + 1) = n then (1.0, 1.0)
      else (1.0, rho)
    in
    rates := (i, i + 1, up) :: (i + 1, i, down) :: !rates
  done;
  let g = Generator.of_rates ~dim:n !rates in
  let lr = Float.log rho in
  let w =
    Vec.init n (fun k -> Float.exp (float_of_int (min k (n - 1 - k)) *. lr))
  in
  let expected = Vec.scale (1.0 /. Vec.sum w) w in
  List.iter
    (fun (name, p) ->
      (* Each peak is reached from the other through 2000 steps of the
         back substitution, each rounding once: about 4e-14 relative. *)
      check_closed_form ~abs:1e-12 name expected p;
      Test_util.check_relative ~rel:1e-10 (name ^ " first peak") expected.(0) p.(0);
      Test_util.check_relative ~rel:1e-10 (name ^ " second peak")
        expected.(n - 1) p.(n - 1))
    [ ("solve", Steady_state.solve g); ("gth", Steady_state.gth g) ]

(* The paper SYS at Q = 2000 under the uniform active command: 8003
   states, an RCM order whose first state is in the queue's tail. *)
let deep_paper_sys () =
  let sys =
    Dpm_core.Sys_model.create
      ~sp:(Dpm_core.Paper_instance.service_provider ())
      ~queue_capacity:2000 ~arrival_rate:Dpm_core.Paper_instance.arrival_rate ()
  in
  let g =
    Dpm_core.Sys_model.generator_of_actions sys ~actions:(fun _ ->
        Dpm_core.Paper_instance.active)
  in
  let p = Steady_state.solve g in
  Alcotest.(check bool) "p >= 0" true (Array.for_all (fun x -> x >= 0.0) p);
  Test_util.check_close ~tol:1e-12 "sum p" 1.0 (Vec.sum p);
  let bound = 1e-9 *. Generator.uniformization_rate g in
  let r = Steady_state.residual g p in
  if r > bound then Alcotest.failf "residual %g above %g" r bound

let random_irreducible_gen =
  QCheck2.Gen.(
    int_range 2 10 >>= fun n ->
    map
      (fun entries ->
        let ring = List.init n (fun i -> (i, (i + 1) mod n, 0.3)) in
        let extra =
          List.filter (fun (i, j, _) -> i <> j)
            (List.map (fun (i, j, v) -> (i mod n, j mod n, v)) entries)
        in
        Generator.of_rates ~dim:n (ring @ extra))
      (list_size (int_range 0 20)
         (map3 (fun i j v -> (i, j, v)) (int_range 0 9) (int_range 0 9)
            (float_range 0.0 4.0))))

let prop_gth_lu_agree =
  Test_util.qtest "GTH and LU agree on irreducible chains"
    random_irreducible_gen (fun g ->
      Vec.approx_equal ~tol:1e-8 (Steady_state.gth g) (Steady_state.lu_solve g))

let prop_solution_is_stationary =
  Test_util.qtest "solve gives pG = 0, sum p = 1" random_irreducible_gen
    (fun g ->
      let p = Steady_state.solve g in
      Steady_state.residual g p <= 1e-8
      && Float.abs (Vec.sum p -. 1.0) <= 1e-9
      && Array.for_all (fun x -> x >= -1e-12) p)

let prop_time_scaling_invariance =
  Test_util.qtest "steady state invariant to time rescaling"
    random_irreducible_gen (fun g ->
      Vec.approx_equal ~tol:1e-8 (Steady_state.solve g)
        (Steady_state.solve (Generator.scale 7.5 g)))

let suite =
  [
    t "two-state closed form" `Quick two_state_closed_form;
    t "M/M/1/K closed form" `Quick mm1k_all_solvers;
    t "transient states zero" `Quick transient_states_get_zero;
    t "multichain rejected" `Quick multichain_rejected;
    t "stiff rates (GTH stability)" `Quick stiff_rates_gth_stable;
    t "expected_value" `Quick expected_value_reads_costs;
    t "deep birth-death, rho 0.36" `Quick (deep_birth_death 0.36);
    t "deep birth-death, rho 2.75" `Quick (deep_birth_death 2.75);
    t "two peaks across an underflowing valley" `Quick two_peak_birth_death;
    t "paper SYS at Q = 2000" `Quick deep_paper_sys;
    prop_gth_lu_agree;
    prop_solution_is_stationary;
    prop_time_scaling_invariance;
  ]
