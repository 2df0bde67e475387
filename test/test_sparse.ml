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
  Test_util.check_vec "vec_mul" (Matrix.vec_mul [| 1.0; 2.0 |] a)
    (Sparse.vec_mul [| 1.0; 2.0 |] (Sparse.of_dense a))

let algebra () =
  let s = s_example () in
  Alcotest.(check bool) "scale doubles" true
    (Matrix.approx_equal
       (Matrix.scale 2.0 (Sparse.to_dense s))
       (Sparse.to_dense (Sparse.scale 2.0 s)));
  Test_util.check_vec "row_sums" [| 2.0; -1.0; 5.0 |] (Sparse.row_sums s)

let with_diagonal () =
  let s =
    Sparse.of_triplets ~rows:3 ~cols:3 [ (0, 2, 1.0); (1, 1, 4.0); (2, 0, 2.0) ]
  in
  let d =
    Sparse.with_diagonal s (fun i ->
        if i = 2 then 0.0 else -.float_of_int (i + 1))
  in
  Alcotest.(check bool) "diagonal replaced, zero left out" true
    (Matrix.approx_equal
       (Matrix.of_arrays
          [| [| -1.0; 0.0; 1.0 |]; [| 0.0; -2.0; 0.0 |]; [| 2.0; 0.0; 0.0 |] |])
       (Sparse.to_dense d));
  Alcotest.(check int) "nnz" 4 (Sparse.nnz d);
  let cols = ref [] in
  Sparse.iter_row d 0 (fun j _ -> cols := j :: !cols);
  Alcotest.(check (list int)) "row 0 in column order" [ 0; 2 ] (List.rev !cols)

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

(* A reference build: stable sort by coordinate, then a left-to-right
   merge.  Values include ones whose sum depends on the order
   (1e16 + 1 - 1e16), so agreement pins the input-order merge. *)
let reference_triplets ts =
  let sorted =
    List.stable_sort (fun (i, j, _) (i', j', _) -> compare (i, j) (i', j')) ts
  in
  let rec merge = function
    | (i, j, v) :: (i', j', v') :: rest when i = i' && j = j' ->
        merge ((i, j, v +. v') :: rest)
    | (i, j, v) :: rest ->
        if v <> 0.0 then (i, j, v) :: merge rest else merge rest
    | [] -> []
  in
  merge sorted

let triplets_gen =
  QCheck2.Gen.(
    pair (int_range 0 8) (int_range 1 8) >>= fun (rows, cols) ->
    let coord = pair (int_range 0 (max 0 (rows - 1))) (int_range 0 (cols - 1)) in
    let value =
      oneof [ oneofl [ 0.0; 1.0; -1.0; 1e16; -1e16; 0.1 ]; float_range (-10.0) 10.0 ]
    in
    map
      (fun l -> (rows, cols, List.map (fun ((i, j), v) -> (i, j, v)) l))
      (if rows = 0 then pure [] else list_size (int_range 0 40) (pair coord value)))

let print_triplets (rows, cols, ts) =
  Printf.sprintf "%dx%d %s" rows cols
    (String.concat "; "
       (List.map (fun (i, j, v) -> Printf.sprintf "(%d,%d,%h)" i j v) ts))

let prop_of_triplets_matches_reference =
  Test_util.qtest ~count:500 ~print:print_triplets
    "of_triplets matches a sort-and-merge reference" triplets_gen
    (fun (rows, cols, ts) ->
      let s = Sparse.of_triplets ~rows ~cols ts in
      let stored = ref [] in
      Sparse.iter s (fun i j x -> stored := (i, j, x) :: !stored);
      let bits = List.map (fun (i, j, x) -> (i, j, Int64.bits_of_float x)) in
      bits (List.rev !stored) = bits (reference_triplets ts)
      && Sparse.nnz s = List.length !stored)

let suite =
  [
    t "construction" `Quick construction;
    t "duplicates and zeros" `Quick duplicates_summed_zeros_dropped;
    t "zero-sum dropping regression" `Quick zero_sum_dropping_regression;
    t "dense roundtrip" `Quick dense_roundtrip;
    t "row iteration sorted" `Quick row_iteration_sorted;
    t "products match dense" `Quick products_match_dense;
    t "algebra" `Quick algebra;
    t "with_diagonal" `Quick with_diagonal;
    prop_of_triplets_matches_reference;
  ]
