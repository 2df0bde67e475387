open Dpm_linalg

let t = Alcotest.test_case

let s_example () =
  Sparse.of_triplets ~rows:3 ~cols:3 [ (0, 1, 2.0); (1, 0, -1.0); (2, 2, 5.0) ]

let construction () =
  let s = s_example () in
  Alcotest.(check int) "rows" 3 (Sparse.rows s);
  Alcotest.(check int) "nnz" 3 (Sparse.nnz s);
  Test_util.check_close "stored" 2.0 (Sparse.get s 0 1);
  Test_util.check_close "structural zero" 0.0 (Sparse.get s 0 2);
  Test_util.check_raises_invalid "out of range triplet" (fun () ->
      Sparse.of_triplets ~rows:2 ~cols:2 [ (2, 0, 1.0) ])

let duplicates_summed_zeros_dropped () =
  let s =
    Sparse.of_triplets ~rows:2 ~cols:2
      [ (0, 0, 1.0); (0, 0, 2.0); (1, 1, 3.0); (1, 1, -3.0) ]
  in
  Test_util.check_close "summed" 3.0 (Sparse.get s 0 0);
  Alcotest.(check int) "zero-sum entry dropped" 1 (Sparse.nnz s)

let dense_roundtrip () =
  let m = Matrix.of_arrays [| [| 1.0; 0.0; 2.0 |]; [| 0.0; 0.0; -3.0 |] |] in
  let s = Sparse.of_dense m in
  Alcotest.(check int) "nnz skips zeros" 3 (Sparse.nnz s);
  Alcotest.(check bool) "roundtrip" true (Matrix.approx_equal m (Sparse.to_dense s))

let row_iteration_sorted () =
  let s =
    Sparse.of_triplets ~rows:1 ~cols:5 [ (0, 4, 1.0); (0, 1, 2.0); (0, 3, 3.0) ]
  in
  let cols = ref [] in
  Sparse.iter_row s 0 (fun j _ -> cols := j :: !cols);
  Alcotest.(check (list int)) "ascending columns" [ 1; 3; 4 ] (List.rev !cols)

let products_match_dense () =
  let a = Matrix.of_arrays [| [| 1.0; 2.0 |]; [| 0.0; 3.0 |] |] in
  let b = Matrix.of_arrays [| [| 4.0; 0.0 |]; [| 5.0; 6.0 |] |] in
  let sa = Sparse.of_dense a and sb = Sparse.of_dense b in
  Alcotest.(check bool) "mul" true
    (Matrix.approx_equal (Matrix.mul a b) (Sparse.to_dense (Sparse.mul sa sb)));
  Test_util.check_vec "mul_vec" (Matrix.mul_vec a [| 1.0; 2.0 |])
    (Sparse.mul_vec sa [| 1.0; 2.0 |]);
  Test_util.check_vec "vec_mul" (Matrix.vec_mul [| 1.0; 2.0 |] a)
    (Sparse.vec_mul [| 1.0; 2.0 |] sa)

let algebra () =
  let s = s_example () in
  Alcotest.(check bool) "add doubles" true
    (Sparse.approx_equal (Sparse.add s s) (Sparse.scale 2.0 s));
  Alcotest.(check bool) "transpose involution" true
    (Sparse.approx_equal s (Sparse.transpose (Sparse.transpose s)));
  Test_util.check_vec "row_sums" [| 2.0; -1.0; 5.0 |] (Sparse.row_sums s)

let zero_sum_dropping_regression () =
  (* Pins the of_triplets invariant (see Sparse.of_triplets doc):
     duplicate triplets that cancel to exactly 0. leave no stored
     entry — not a stored explicit zero — so nnz, iter_row and
     row_sums all agree that the coordinate is structurally absent. *)
  let s =
    Sparse.of_triplets ~rows:3 ~cols:3
      [
        (0, 0, 1.0); (0, 2, 4.0); (0, 2, -4.0);
        (1, 1, 0.5); (1, 1, 0.5);
        (2, 0, -7.0); (2, 0, 7.0); (2, 2, 3.0);
      ]
  in
  Alcotest.(check int) "nnz counts only surviving entries" 3 (Sparse.nnz s);
  Test_util.check_close "cancelled entry reads as zero" 0.0 (Sparse.get s 0 2);
  Test_util.check_close "summed duplicate survives" 1.0 (Sparse.get s 1 1);
  let visited = ref [] in
  for i = 0 to 2 do
    Sparse.iter_row s i (fun j _ -> visited := (i, j) :: !visited)
  done;
  Alcotest.(check (list (pair int int)))
    "iter_row skips cancelled coordinates"
    [ (0, 0); (1, 1); (2, 2) ]
    (List.sort compare !visited)

let mul_vec_into_matches () =
  let s = s_example () in
  let v = [| 0.5; -2.0; 3.0 |] in
  let dst = Vec.create 3 in
  Sparse.mul_vec_into s v ~dst;
  (* Bitwise, not approximate: the doc promises the same accumulation
     order as mul_vec. *)
  Alcotest.(check bool) "bitwise equal to mul_vec" true
    (dst = Sparse.mul_vec s v);
  Test_util.check_raises_invalid "dst dimension mismatch" (fun () ->
      Sparse.mul_vec_into s v ~dst:(Vec.create 2))

let sparse_gen =
  QCheck2.Gen.(
    int_range 1 8 >>= fun n ->
    int_range 0 (n * n) >>= fun k ->
    map
      (fun entries -> (n, Sparse.of_triplets ~rows:n ~cols:n entries))
      (list_repeat k
         (map3
            (fun i j v -> (i mod n, j mod n, v))
            (int_range 0 (n - 1))
            (int_range 0 (n - 1))
            (float_range (-10.0) 10.0))))

let prop_matches_dense_mul_vec =
  Test_util.qtest "spmv matches dense" sparse_gen (fun (n, s) ->
      let v = Vec.init n (fun i -> float_of_int i -. 1.5) in
      Vec.approx_equal ~tol:1e-9 (Sparse.mul_vec s v)
        (Matrix.mul_vec (Sparse.to_dense s) v))

let prop_transpose_matches_dense =
  Test_util.qtest "transpose matches dense" sparse_gen (fun (_, s) ->
      Matrix.approx_equal
        (Matrix.transpose (Sparse.to_dense s))
        (Sparse.to_dense (Sparse.transpose s)))

let prop_mul_matches_dense =
  Test_util.qtest "spmm matches dense"
    (QCheck2.Gen.pair sparse_gen sparse_gen)
    (fun ((n1, a), (n2, b)) ->
      n1 <> n2
      || Matrix.approx_equal ~tol:1e-8
           (Matrix.mul (Sparse.to_dense a) (Sparse.to_dense b))
           (Sparse.to_dense (Sparse.mul a b)))

let suite =
  [
    t "construction" `Quick construction;
    t "duplicates and zeros" `Quick duplicates_summed_zeros_dropped;
    t "zero-sum dropping regression" `Quick zero_sum_dropping_regression;
    t "mul_vec_into matches mul_vec" `Quick mul_vec_into_matches;
    t "dense roundtrip" `Quick dense_roundtrip;
    t "row iteration sorted" `Quick row_iteration_sorted;
    t "products match dense" `Quick products_match_dense;
    t "algebra" `Quick algebra;
    prop_matches_dense_mul_vec;
    prop_transpose_matches_dense;
    prop_mul_matches_dense;
  ]
