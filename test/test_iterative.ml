open Dpm_linalg

let t = Alcotest.test_case

(* Random birth-death generator: irreducible, nice diagonals. *)
let birth_death n lam mu =
  let ts = ref [] in
  for i = 0 to n - 1 do
    if i < n - 1 then ts := (i, i + 1, lam) :: !ts;
    if i > 0 then ts := (i, i - 1, mu) :: !ts
  done;
  let out = Array.make n 0.0 in
  List.iter (fun (i, _, r) -> out.(i) <- out.(i) +. r) !ts;
  let diag = List.init n (fun i -> (i, i, -.out.(i))) in
  Sparse.of_triplets ~rows:n ~cols:n (diag @ !ts)

let mm1k_closed_form n lam mu =
  let rho = lam /. mu in
  Vec.normalize1 (Vec.init n (fun i -> rho ** float_of_int i))

let power_method_birth_death () =
  (* Uniformize a birth-death generator and find its fixed point. *)
  let q = birth_death 6 1.0 2.0 in
  let lam_max = 3.5 in
  let p =
    Sparse.add (Sparse.of_dense (Matrix.identity 6)) (Sparse.scale (1.0 /. lam_max) q)
  in
  let r = Iterative.power_method ~tol:1e-13 p in
  Alcotest.(check bool) "converged" true r.Iterative.converged;
  Test_util.check_vec ~tol:1e-8 "stationary" (mm1k_closed_form 6 1.0 2.0)
    r.Iterative.solution

let gauss_seidel_steady_birth_death () =
  let q = birth_death 8 0.7 1.3 in
  let r = Iterative.gauss_seidel_steady ~tol:1e-14 q in
  Alcotest.(check bool) "converged" true r.Iterative.converged;
  Alcotest.(check bool) "residual tiny" true (r.Iterative.residual < 1e-9);
  Test_util.check_vec ~tol:1e-8 "stationary" (mm1k_closed_form 8 0.7 1.3)
    r.Iterative.solution

let steady_rejects_zero_diagonal () =
  let q = Sparse.of_triplets ~rows:2 ~cols:2 [ (0, 1, 1.0); (0, 0, -1.0) ] in
  Test_util.check_raises_invalid "absorbing state" (fun () ->
      ignore (Iterative.gauss_seidel_steady q))

let dominant_system n =
  let ts = ref [] in
  for i = 0 to n - 1 do
    ts := (i, i, 10.0 +. float_of_int i) :: !ts;
    if i > 0 then ts := (i, i - 1, 1.5) :: !ts;
    if i < n - 1 then ts := (i, i + 1, -2.0) :: !ts
  done;
  Sparse.of_triplets ~rows:n ~cols:n !ts

let jacobi_solves () =
  let a = dominant_system 7 in
  let b = Vec.init 7 (fun i -> float_of_int (i - 3)) in
  let r = Iterative.jacobi ~tol:1e-12 a b in
  Alcotest.(check bool) "converged" true r.Iterative.converged;
  Alcotest.(check bool) "residual" true
    (Vec.norm_inf (Vec.sub (Sparse.mul_vec a r.Iterative.solution) b) < 1e-10)

let gauss_seidel_solves_and_matches_lu () =
  let a = dominant_system 7 in
  let b = Vec.init 7 (fun i -> 1.0 +. float_of_int i) in
  let r = Iterative.gauss_seidel ~tol:1e-13 a b in
  Alcotest.(check bool) "converged" true r.Iterative.converged;
  let x_lu = Lu.solve (Sparse.to_dense a) b in
  Test_util.check_vec ~tol:1e-8 "matches LU" x_lu r.Iterative.solution

let iteration_cap_reported () =
  let a = dominant_system 7 in
  let b = Vec.make 7 1.0 in
  let r = Iterative.jacobi ~tol:1e-16 ~max_iter:2 a b in
  Alcotest.(check bool) "not converged" false r.Iterative.converged;
  Alcotest.(check int) "stopped at cap" 2 r.Iterative.iterations

let prop_gs_matches_lu =
  Test_util.qtest ~count:60 "Gauss-Seidel matches LU on dominant systems"
    QCheck2.Gen.(int_range 2 9)
    (fun n ->
      let a = dominant_system n in
      let b = Vec.init n (fun i -> Float.sin (float_of_int i)) in
      let r = Iterative.gauss_seidel ~tol:1e-13 a b in
      r.Iterative.converged
      && Vec.approx_equal ~tol:1e-7 (Lu.solve (Sparse.to_dense a) b)
           r.Iterative.solution)

let suite =
  [
    t "power method on birth-death" `Quick power_method_birth_death;
    t "gauss-seidel steady state" `Quick gauss_seidel_steady_birth_death;
    t "steady rejects zero diagonal" `Quick steady_rejects_zero_diagonal;
    t "jacobi" `Quick jacobi_solves;
    t "gauss-seidel linear solve" `Quick gauss_seidel_solves_and_matches_lu;
    t "iteration cap" `Quick iteration_cap_reported;
    prop_gs_matches_lu;
  ]
