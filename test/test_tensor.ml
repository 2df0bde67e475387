(* The Kronecker (tensor) product and sum of Section III, as the lazy
   Operator builds them and to_dense expands them. *)

open Dpm_linalg

let t = Alcotest.test_case

let a2 = Matrix.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |]
let b2 = Matrix.of_arrays [| [| 0.0; 5.0 |]; [| 6.0; 7.0 |] |]

let product a b =
  Operator.to_dense (Operator.kron_prod (Operator.dense a) (Operator.dense b))

let sum a b =
  Operator.to_dense (Operator.kron_sum (Operator.dense a) (Operator.dense b))

let product_definition () =
  (* Definition 4.4 of the paper: C = [a11 B, a12 B; a21 B, a22 B]. *)
  let c = product a2 b2 in
  Alcotest.(check int) "shape" 4 (Matrix.rows c);
  Test_util.check_close "a11*b01" 5.0 (Matrix.get c 0 1);
  Test_util.check_close "a12*b10" 12.0 (Matrix.get c 1 2);
  Test_util.check_close "a21*b11" 21.0 (Matrix.get c 3 1);
  Test_util.check_close "a22*b11" 28.0 (Matrix.get c 3 3)

let sum_definition () =
  (* A (+) B = A (x) I + I (x) B *)
  let c = sum a2 b2 in
  let expected =
    Matrix.add (product a2 (Matrix.identity 2)) (product (Matrix.identity 2) b2)
  in
  Alcotest.(check bool) "matches definition" true (Matrix.approx_equal c expected);
  Test_util.check_raises_invalid "sum wants square" (fun () ->
      sum (Matrix.create 2 3) b2)

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
   Operator.kron_prod. *)
let kron_vec u v =
  let nb = Array.length v in
  Vec.init (Array.length u * nb) (fun k -> u.(k / nb) *. v.(k mod nb))

let prop_mixed_product =
  (* (A (x) B)(u (x) v) = (Au) (x) (Bv) for vectors. *)
  Test_util.qtest "Kronecker mixed-product with vectors" pair_small
    (fun (a, b) ->
      let u = Vec.init (Matrix.rows a) (fun i -> float_of_int (i + 1)) in
      let v = Vec.init (Matrix.rows b) (fun i -> 2.0 -. float_of_int i) in
      let lhs = Matrix.mul_vec (product a b) (kron_vec u v) in
      let rhs = kron_vec (Matrix.mul_vec a u) (Matrix.mul_vec b v) in
      Vec.approx_equal ~tol:1e-7 lhs rhs)

let prop_sum_row_sums =
  (* Row sums of A (+) B are the sums of the operands' row sums —
     which is why a Kronecker sum of generators is a generator. *)
  Test_util.qtest "Kronecker sum row sums add" pair_small (fun (a, b) ->
      let ra = Matrix.row_sums a and rb = Matrix.row_sums b in
      let rc = Matrix.row_sums (sum a b) in
      let nb = Matrix.rows b in
      let ok = ref true in
      Array.iteri
        (fun k s ->
          if Float.abs (s -. (ra.(k / nb) +. rb.(k mod nb))) > 1e-8 then ok := false)
        rc;
      !ok)

let prop_product_dims =
  Test_util.qtest "product shape multiplies" pair_small (fun (a, b) ->
      let lazy_c = Operator.kron_prod (Operator.dense a) (Operator.dense b) in
      let c = Operator.to_dense lazy_c in
      Operator.rows lazy_c = Matrix.rows a * Matrix.rows b
      && Matrix.rows c = Operator.rows lazy_c
      && Matrix.cols c = Matrix.cols a * Matrix.cols b)

let suite =
  [
    t "product definition" `Quick product_definition;
    t "sum definition" `Quick sum_definition;
    prop_mixed_product;
    prop_sum_row_sums;
    prop_product_dims;
  ]
