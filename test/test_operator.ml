(* Lazy linear operators: leaves, combinators, nesting inside block
   grids, and the implicit SYS generator against its materialized
   reference. *)

open Dpm_linalg
open Dpm_core

let check_dense_equal ?(tol = 1e-12) msg expected actual =
  Alcotest.(check bool) msg true (Matrix.approx_equal ~tol expected actual)

(* A small fixed dense block with zeros, negatives, and repeats-free
   structure. *)
let m23 = Matrix.of_arrays [| [| 1.0; 0.0; -2.0 |]; [| 0.0; 3.5; 0.0 |] |]
let m32 = Matrix.of_arrays [| [| 2.0; 0.0 |]; [| -1.0; 1.0 |]; [| 0.0; 4.0 |] |]
let sq2 = Matrix.of_arrays [| [| -1.0; 1.0 |]; [| 2.0; -2.0 |] |]
let sq3 =
  Matrix.of_arrays
    [| [| -3.0; 2.0; 1.0 |]; [| 0.0; -1.0; 1.0 |]; [| 4.0; 0.0; -4.0 |] |]

(* The Kronecker product by its definition (Definition 4.4): with [b]
   of shape n2 x m2, entry (i1*n2 + i2, j1*m2 + j2) is
   a(i1,j1) * b(i2,j2). *)
let kron_definition a b =
  let n2 = Matrix.rows b and m2 = Matrix.cols b in
  let c = Matrix.create (Matrix.rows a * n2) (Matrix.cols a * m2) in
  for i1 = 0 to Matrix.rows a - 1 do
    for j1 = 0 to Matrix.cols a - 1 do
      for i2 = 0 to n2 - 1 do
        for j2 = 0 to m2 - 1 do
          Matrix.set c ((i1 * n2) + i2) ((j1 * m2) + j2)
            (Matrix.get a i1 j1 *. Matrix.get b i2 j2)
        done
      done
    done
  done;
  c

(* The Kronecker sum A (+) B = A (x) I + I (x) B. *)
let kron_sum_definition a b =
  Matrix.add
    (kron_definition a (Matrix.identity (Matrix.rows b)))
    (kron_definition (Matrix.identity (Matrix.rows a)) b)

let leaves_round_trip () =
  check_dense_equal "dense leaf" m23 (Operator.to_dense (Operator.dense m23));
  check_dense_equal "csr leaf" m23
    (Operator.to_dense (Operator.csr (Sparse.of_dense m23)));
  let d = [| 1.0; 0.0; -2.5 |] in
  let expected = Matrix.init 3 3 (fun i j -> if i = j then d.(i) else 0.0) in
  check_dense_equal "diag leaf" expected (Operator.to_dense (Operator.diag d));
  check_dense_equal "identity" (Matrix.identity 4)
    (Operator.to_dense (Operator.identity 4));
  Alcotest.(check int) "rows" 2 (Operator.rows (Operator.dense m23))

let combinators_match_dense () =
  let a = Operator.dense m23 and b = Operator.dense m32 in
  check_dense_equal "kron_prod" (kron_definition m23 m32)
    (Operator.to_dense (Operator.kron_prod a b));
  check_dense_equal "kron_sum" (kron_sum_definition sq2 sq3)
    (Operator.to_dense
       (Operator.kron_sum (Operator.dense sq2) (Operator.dense sq3)));
  check_dense_equal "sum" (Matrix.add m23 m23)
    (Operator.to_dense (Operator.sum a a));
  Alcotest.check_raises "sum shape mismatch"
    (Invalid_argument "Operator.sum: shape mismatch (2x3 vs 3x2)") (fun () ->
      ignore (Operator.sum a b));
  Alcotest.check_raises "kron_sum not square"
    (Invalid_argument "Operator.kron_sum: operator is not square") (fun () ->
      ignore (Operator.kron_sum a a))

let matrix_gen ~rows ~cols =
  QCheck2.Gen.(
    map
      (fun l ->
        let a = Array.of_list l in
        Matrix.init rows cols (fun i j -> a.((i * cols) + j)))
      (list_repeat (rows * cols) (float_range (-5.0) 5.0)))

(* Two rectangular factors for the product and two square ones for
   the sum, each 1..3 on a side. *)
let factors_gen =
  QCheck2.Gen.(
    let side = int_range 1 3 in
    side >>= fun r1 ->
    side >>= fun c1 ->
    side >>= fun r2 ->
    side >>= fun c2 ->
    quad (matrix_gen ~rows:r1 ~cols:c1) (matrix_gen ~rows:r2 ~cols:c2)
      (matrix_gen ~rows:r1 ~cols:r1) (matrix_gen ~rows:r2 ~cols:r2))

let prop_kron_definition =
  Test_util.qtest "Kronecker combinators match the definition" factors_gen
    (fun (a, b, sa, sb) ->
      (* Mixed leaf kinds, so both the dense and the CSR row walks are
         indexed through the Kronecker offsets. *)
      let prod =
        Operator.to_dense
          (Operator.kron_prod (Operator.dense a) (Operator.csr (Sparse.of_dense b)))
      in
      let sum =
        Operator.to_dense
          (Operator.kron_sum (Operator.csr (Sparse.of_dense sa)) (Operator.dense sb))
      in
      Matrix.approx_equal ~tol:1e-12 (kron_definition a b) prod
      && Matrix.approx_equal ~tol:1e-12 (kron_sum_definition sa sb) sum)

let blocks_and_transpose () =
  (* [ sq2 | 0 ; m32 | sq3 ]. *)
  let grid =
    Operator.blocks ~row_dims:[| 2; 3 |] ~col_dims:[| 2; 3 |]
      [|
        [| Some (Operator.dense sq2); None |];
        [| Some (Operator.dense m32); Some (Operator.dense sq3) |];
      |]
  in
  let expected = Matrix.create 5 5 in
  for i = 0 to 1 do
    for j = 0 to 1 do
      Matrix.set expected i j (Matrix.get sq2 i j)
    done
  done;
  for i = 0 to 2 do
    for j = 0 to 1 do
      Matrix.set expected (2 + i) j (Matrix.get m32 i j)
    done;
    for j = 0 to 2 do
      Matrix.set expected (2 + i) (2 + j) (Matrix.get sq3 i j)
    done
  done;
  check_dense_equal "blocks" expected (Operator.to_dense grid);
  (* Combinators nest inside a grid: the irreducible generator
     [ sq2 (+) sq3 - D1 | C1 ; C2 | sq2 - D2 ] must expand to the same
     blocks built from the definitions. *)
  let r1 = Matrix.of_arrays [| [| 1.0; 0.0 |]; [| 0.0; 2.0 |] |]
  and ones = Matrix.of_arrays [| [| 1.0 |]; [| 1.0 |]; [| 1.0 |] |]
  and row = Matrix.of_arrays [| [| 0.5; 0.0; 0.25 |] |] in
  let c1 =
    Operator.kron_prod
      (Operator.dense r1) (Operator.dense ones)
  in
  let c2 =
    Operator.kron_prod (Operator.identity 2)
      (Operator.csr (Sparse.of_dense row))
  in
  let g =
    Operator.blocks ~row_dims:[| 6; 2 |] ~col_dims:[| 6; 2 |]
      [|
        [|
          Some
            (Operator.sum
               (Operator.kron_sum (Operator.dense sq2)
                  (Operator.csr (Sparse.of_dense sq3)))
               (Operator.diag [| -1.0; -1.0; -1.0; -2.0; -2.0; -2.0 |]));
          Some c1;
        |];
        [|
          Some c2;
          Some (Operator.sum (Operator.dense sq2) (Operator.diag [| -0.75; -0.75 |]));
        |];
      |]
  in
  let dense = Operator.to_dense g in
  Test_util.check_vec ~tol:1e-12 "composite is a generator" (Vec.create 8)
    (Matrix.row_sums dense);
  let expected = Matrix.create 8 8 in
  let place r0 c0 m =
    for i = 0 to Matrix.rows m - 1 do
      for j = 0 to Matrix.cols m - 1 do
        Matrix.set expected (r0 + i) (c0 + j) (Matrix.get m i j)
      done
    done
  in
  place 0 0
    (Matrix.sub (kron_sum_definition sq2 sq3)
       (Matrix.diag [| 1.0; 1.0; 1.0; 2.0; 2.0; 2.0 |]));
  place 0 6 (kron_definition r1 ones);
  place 6 0 (kron_definition (Matrix.identity 2) row);
  place 6 6 (Matrix.sub sq2 (Matrix.diag [| 0.75; 0.75 |]));
  check_dense_equal "nested combinators" expected dense

let count_nonzeros m =
  let n = ref 0 in
  for i = 0 to Matrix.rows m - 1 do
    for j = 0 to Matrix.cols m - 1 do
      if Matrix.get m i j <> 0.0 then incr n
    done
  done;
  !n

let storage_accounting () =
  let a = Operator.csr (Sparse.of_dense sq3) in
  (* 7 nonzeros in sq3. *)
  Alcotest.(check int) "csr stored" 7 (Operator.stored_floats a);
  let kp = Operator.kron_prod a a in
  Alcotest.(check int) "kron stored = factor sum" 14 (Operator.stored_floats kp);
  Alcotest.(check int) "kron materialized = nnz product" 49
    (Operator.materialized_nnz kp);
  Alcotest.(check int) "expansion agrees" 49
    (count_nonzeros (Operator.to_dense kp));
  let ks = Operator.kron_sum a a in
  Alcotest.(check int) "kron_sum materialized bound" (21 + 21)
    (Operator.materialized_nnz ks);
  Alcotest.(check bool) "bound dominates expansion" true
    (count_nonzeros (Operator.to_dense ks) <= Operator.materialized_nnz ks)

(* Two active modes: the shape the lazy form must handle beyond the
   paper's single-active SP. *)
let two_active_sp () =
  Service_provider.create
    ~names:[| "slow"; "fast"; "off" |]
    ~switch_time:
      [| [| 0.0; 0.2; 0.3 |]; [| 0.2; 0.0; 0.3 |]; [| 1.0; 1.5; 0.0 |] |]
    ~service_rate:[| 0.5; 2.0; 0.0 |]
    ~power:[| 10.0; 30.0; 0.2 |]
    ~switch_energy:
      [| [| 0.0; 1.0; 1.0 |]; [| 1.0; 0.0; 1.0 |]; [| 5.0; 8.0; 0.0 |] |]

let sys_operator_matches_uniform_generator () =
  (* The paper's single-active SP is checked in test_sys_model. *)
  let sys =
    Sys_model.create ~sp:(two_active_sp ()) ~queue_capacity:2 ~arrival_rate:1.0 ()
  in
  for action = 0 to Service_provider.num_modes (Sys_model.sp sys) - 1 do
    check_dense_equal ~tol:0.0
      (Printf.sprintf "SYS operator, two active modes, Q=2, action %d" action)
      (Sys_model.uniform_generator sys ~action)
      (Operator.to_dense (Sys_model.operator sys ~action))
  done;
  (* The lazy form must store fewer floats than the expansion has
     nonzeros. *)
  let op = Sys_model.operator (Paper_instance.system ()) ~action:0 in
  Alcotest.(check bool) "implicit storage below expanded nnz" true
    (Operator.stored_floats op < Operator.materialized_nnz op)

let suite =
  [
    Alcotest.test_case "leaves round-trip" `Quick leaves_round_trip;
    Alcotest.test_case "combinators match dense" `Quick combinators_match_dense;
    prop_kron_definition;
    Alcotest.test_case "blocks and transpose" `Quick blocks_and_transpose;
    Alcotest.test_case "storage accounting" `Quick storage_accounting;
    Alcotest.test_case "SYS operator = uniform generator" `Quick
      sys_operator_matches_uniform_generator;
  ]
