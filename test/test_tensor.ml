(* The Kronecker (tensor) product and sum of Section III, and the SYS
   generator the paper builds from them. *)

open Dpm_linalg
open Dpm_core

let t = Alcotest.test_case

let check_dense_equal ?(tol = 1e-12) msg expected actual =
  Alcotest.(check bool) msg true (Matrix.approx_equal ~tol expected actual)

let a2 = Matrix.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |]
let b2 = Matrix.of_arrays [| [| 0.0; 5.0 |]; [| 6.0; 7.0 |] |]

(* Small fixed blocks with zeros and negatives: two rectangular, two
   square generators. *)
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

let product_definition () =
  (* Definition 4.4 of the paper: C = [a11 B, a12 B; a21 B, a22 B]. *)
  let c = Matrix.kron_prod a2 b2 in
  Alcotest.(check int) "shape" 4 (Matrix.rows c);
  Test_util.check_close "a11*b01" 5.0 (Matrix.get c 0 1);
  Test_util.check_close "a12*b10" 12.0 (Matrix.get c 1 2);
  Test_util.check_close "a21*b11" 21.0 (Matrix.get c 3 1);
  Test_util.check_close "a22*b11" 28.0 (Matrix.get c 3 3)

let sum_definition () =
  (* A (+) B = A (x) I + I (x) B *)
  let c = Matrix.kron_sum a2 b2 in
  let expected =
    Matrix.add
      (Matrix.kron_prod a2 (Matrix.identity 2))
      (Matrix.kron_prod (Matrix.identity 2) b2)
  in
  Alcotest.(check bool) "matches definition" true (Matrix.approx_equal c expected);
  Test_util.check_raises_invalid "sum wants square" (fun () ->
      Matrix.kron_sum (Matrix.create 2 3) b2)

let square_gen n =
  QCheck2.Gen.(
    map
      (fun l ->
        let a = Array.of_list l in
        Matrix.init n n (fun i j -> a.((i * n) + j)))
      (list_repeat (n * n) (float_range (-5.0) 5.0)))

let pair_small =
  QCheck2.Gen.(
    int_range 1 3 >>= fun n1 ->
    int_range 1 3 >>= fun n2 ->
    pair (square_gen n1) (square_gen n2))

(* u (x) v: entry i * |v| + j is u_i v_j, the row order of
   Matrix.kron_prod. *)
let kron_vec u v =
  let nb = Array.length v in
  Vec.init (Array.length u * nb) (fun k -> u.(k / nb) *. v.(k mod nb))

let prop_mixed_product =
  (* (A (x) B)(u (x) v) = (Au) (x) (Bv) for vectors. *)
  Test_util.qtest "Kronecker mixed-product with vectors" pair_small
    (fun (a, b) ->
      let u = Vec.init (Matrix.rows a) (fun i -> float_of_int (i + 1)) in
      let v = Vec.init (Matrix.rows b) (fun i -> 2.0 -. float_of_int i) in
      let lhs = Matrix.mul_vec (Matrix.kron_prod a b) (kron_vec u v) in
      let rhs = kron_vec (Matrix.mul_vec a u) (Matrix.mul_vec b v) in
      Vec.approx_equal ~tol:1e-7 lhs rhs)

let prop_sum_row_sums =
  (* Row sums of A (+) B are the sums of the operands' row sums —
     which is why a Kronecker sum of generators is a generator. *)
  Test_util.qtest "Kronecker sum row sums add" pair_small (fun (a, b) ->
      let ra = Matrix.row_sums a and rb = Matrix.row_sums b in
      let rc = Matrix.row_sums (Matrix.kron_sum a b) in
      let nb = Matrix.rows b in
      let ok = ref true in
      Array.iteri
        (fun k s ->
          if Float.abs (s -. (ra.(k / nb) +. rb.(k mod nb))) > 1e-8 then ok := false)
        rc;
      !ok)

let prop_product_dims =
  Test_util.qtest "product shape multiplies" pair_small (fun (a, b) ->
      let c = Matrix.kron_prod a b in
      Matrix.rows c = Matrix.rows a * Matrix.rows b
      && Matrix.cols c = Matrix.cols a * Matrix.cols b)

let combinators_match_dense () =
  check_dense_equal "kron_prod" (kron_definition m23 m32) (Matrix.kron_prod m23 m32);
  check_dense_equal "kron_sum" (kron_sum_definition sq2 sq3) (Matrix.kron_sum sq2 sq3);
  Alcotest.check_raises "kron_sum not square"
    (Invalid_argument "Matrix.kron_sum: factors must be square") (fun () ->
      ignore (Matrix.kron_sum m23 m23))

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
      Matrix.approx_equal ~tol:1e-12 (kron_definition a b) (Matrix.kron_prod a b)
      && Matrix.approx_equal ~tol:1e-12 (kron_sum_definition sa sb)
           (Matrix.kron_sum sa sb))

let blocks_and_transpose () =
  (* The combinators nested in a block grid, the shape of the SYS
     generator: [ sq2 (+) sq3 - D1 | R1 (x) 1 ; I (x) row | sq2 - D2 ]
     is an irreducible generator, and its blocks are the definitions'. *)
  let r1 = Matrix.of_arrays [| [| 1.0; 0.0 |]; [| 0.0; 2.0 |] |]
  and ones = Matrix.of_arrays [| [| 1.0 |]; [| 1.0 |]; [| 1.0 |] |]
  and row = Matrix.of_arrays [| [| 0.5; 0.0; 0.25 |] |] in
  (* The grid under test goes through [set_block]; the expected one
     is written entry by entry. *)
  let grid blocks =
    let g = Matrix.create 8 8 in
    List.iter (fun (row, col, m) -> Matrix.set_block g ~row ~col m) blocks;
    g
  in
  let grid_by_entry blocks =
    let g = Matrix.create 8 8 in
    List.iter
      (fun (r0, c0, m) ->
        for i = 0 to Matrix.rows m - 1 do
          for j = 0 to Matrix.cols m - 1 do
            Matrix.set g (r0 + i) (c0 + j) (Matrix.get m i j)
          done
        done)
      blocks;
    g
  in
  let d1 = Matrix.diag [| 1.0; 1.0; 1.0; 2.0; 2.0; 2.0 |]
  and d2 = Matrix.diag [| 0.75; 0.75 |] in
  let g =
    grid
      [
        (0, 0, Matrix.sub (Matrix.kron_sum sq2 sq3) d1);
        (0, 6, Matrix.kron_prod r1 ones);
        (6, 0, Matrix.kron_prod (Matrix.identity 2) row);
        (6, 6, Matrix.sub sq2 d2);
      ]
  in
  Test_util.check_vec ~tol:1e-12 "composite is a generator" (Vec.create 8)
    (Matrix.row_sums g);
  let expected =
    grid_by_entry
      [
        (0, 0, Matrix.sub (kron_sum_definition sq2 sq3) d1);
        (0, 6, kron_definition r1 ones);
        (6, 0, kron_definition (Matrix.identity 2) row);
        (6, 6, Matrix.sub sq2 d2);
      ]
  in
  check_dense_equal "nested combinators" expected g;
  Test_util.check_raises_invalid "block outside the grid" (fun () ->
      Matrix.set_block (Matrix.create 8 8) ~row:6 ~col:0 sq3);
  (* The transpose of a product is the product of the transposes. *)
  check_dense_equal "transpose"
    (Matrix.transpose (Matrix.kron_prod r1 ones))
    (Matrix.kron_prod (Matrix.transpose r1) (Matrix.transpose ones))

(* Two active modes: the shape the formula must handle beyond the
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
      (Printf.sprintf "SYS tensor formula, two active modes, Q=2, action %d" action)
      (Sys_model.uniform_generator sys ~action)
      (Sys_model.tensor_generator sys ~action)
  done

let suite =
  [
    t "product definition" `Quick product_definition;
    t "sum definition" `Quick sum_definition;
    prop_mixed_product;
    prop_sum_row_sums;
    prop_product_dims;
    t "combinators match dense" `Quick combinators_match_dense;
    prop_kron_definition;
    t "blocks and transpose" `Quick blocks_and_transpose;
    t "SYS operator = uniform generator" `Quick
      sys_operator_matches_uniform_generator;
  ]
