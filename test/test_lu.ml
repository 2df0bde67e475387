open Dpm_linalg

let t = Alcotest.test_case

let solve_known_system () =
  (* 2x + y = 5, x + 3y = 10  ->  x = 1, y = 3 *)
  let a = Matrix.of_arrays [| [| 2.0; 1.0 |]; [| 1.0; 3.0 |] |] in
  let x = Lu.solve a [| 5.0; 10.0 |] in
  Test_util.check_vec ~tol:1e-12 "solution" [| 1.0; 3.0 |] x

let pivoting_needed () =
  (* Leading zero pivot forces a row swap. *)
  let a = Matrix.of_arrays [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  let x = Lu.solve a [| 2.0; 3.0 |] in
  Test_util.check_vec ~tol:1e-12 "swap solution" [| 3.0; 2.0 |] x

let singular_detected () =
  let a = Matrix.of_arrays [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  (match Lu.solve a [| 1.0; 2.0 |] with
  | exception Lu.Singular _ -> ()
  | _ -> Alcotest.fail "expected Singular");
  Test_util.check_raises_invalid "not square" (fun () ->
      Lu.decompose (Matrix.create 2 3))

let determinant () =
  let a = Matrix.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  Test_util.check_close ~tol:1e-12 "det" (-2.0) (Lu.det (Lu.decompose a));
  let swap = Matrix.of_arrays [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  Test_util.check_close ~tol:1e-12 "det permutation" (-1.0)
    (Lu.det (Lu.decompose swap))

let inverse_roundtrip () =
  let a = Matrix.of_arrays [| [| 4.0; 7.0 |]; [| 2.0; 6.0 |] |] in
  let inv = Lu.inverse a in
  Alcotest.(check bool) "A * A^-1 = I" true
    (Matrix.approx_equal ~tol:1e-12 (Matrix.identity 2) (Matrix.mul a inv))

let solve_many_shares_factorization () =
  let a = Matrix.of_arrays [| [| 2.0; 0.0 |]; [| 0.0; 4.0 |] |] in
  match Lu.solve_many a [ [| 2.0; 4.0 |]; [| 4.0; 8.0 |] ] with
  | [ x1; x2 ] ->
      Test_util.check_vec "first rhs" [| 1.0; 1.0 |] x1;
      Test_util.check_vec "second rhs" [| 2.0; 2.0 |] x2
  | _ -> Alcotest.fail "expected two solutions"

(* A leading zero pivot forces row swaps, so the inverse permutation
   is exercised. *)
let transposed_solve () =
  let a =
    Matrix.of_arrays
      [| [| 0.0; 2.0; 1.0 |]; [| 3.0; -1.0; 4.0 |]; [| 1.0; 5.0; -2.0 |] |]
  in
  let b = [| 1.0; -2.0; 3.0 |] in
  Test_util.check_vec ~tol:1e-12 "A^T x = b"
    (Lu.solve (Matrix.transpose a) b)
    (Lu.solve_transposed_factored (Lu.decompose a) b)

(* Diagonally dominant random systems are comfortably nonsingular. *)
let dominant_gen =
  QCheck2.Gen.(
    int_range 1 8 >>= fun n ->
    map
      (fun l ->
        let a = Array.of_list l in
        let m =
          Matrix.init n n (fun i j ->
              let base = a.((i * n) + j) in
              if i = j then base +. (20.0 *. Float.max 1.0 (Float.abs base))
              else base)
        in
        m)
      (list_repeat (n * n) (float_range (-5.0) 5.0)))

let prop_residual_small =
  Test_util.qtest "Ax = b residual small" dominant_gen (fun a ->
      let n = Matrix.rows a in
      let b = Vec.init n (fun i -> float_of_int ((i * i) - 3)) in
      let x = Lu.solve a b in
      Lu.residual_norm a x b <= 1e-8)

let prop_det_product =
  Test_util.qtest "det(AB) = det(A) det(B)"
    (QCheck2.Gen.pair dominant_gen dominant_gen)
    (fun (a, b) ->
      Matrix.rows a <> Matrix.rows b
      ||
      let da = Lu.det (Lu.decompose a) and db = Lu.det (Lu.decompose b) in
      let dab = Lu.det (Lu.decompose (Matrix.mul a b)) in
      Float.abs (dab -. (da *. db)) <= 1e-6 *. Float.abs (da *. db))

let prop_inverse_roundtrip =
  Test_util.qtest "A^-1 A = I" dominant_gen (fun a ->
      Matrix.approx_equal ~tol:1e-8
        (Matrix.identity (Matrix.rows a))
        (Matrix.mul (Lu.inverse a) a))

let prop_transposed_solve =
  Test_util.qtest "transposed solve matches explicit transpose"
    QCheck2.Gen.(
      int_range 1 8 >>= fun n ->
      map
        (fun l -> Matrix.init n n (fun i j -> List.nth l ((i * n) + j)))
        (list_repeat (n * n) (float_range (-5.0) 5.0)))
    (fun a ->
      let n = Matrix.rows a in
      let b = Vec.init n (fun i -> float_of_int ((2 * i) - n)) in
      match Lu.decompose a with
      | exception Lu.Singular _ -> true
      | lu ->
          let x = Lu.solve_transposed_factored lu b in
          Lu.residual_norm (Matrix.transpose a) x b
          <= 1e-8 *. (1.0 +. Vec.norm_inf x))

let suite =
  [
    t "known system" `Quick solve_known_system;
    t "partial pivoting" `Quick pivoting_needed;
    t "singular detection" `Quick singular_detected;
    t "determinant" `Quick determinant;
    t "inverse" `Quick inverse_roundtrip;
    t "solve_many" `Quick solve_many_shares_factorization;
    t "transposed solve" `Quick transposed_solve;
    prop_residual_small;
    prop_det_product;
    prop_inverse_roundtrip;
    prop_transposed_solve;
  ]
