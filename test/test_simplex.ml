open Dpm_linalg

let t = Alcotest.test_case

(* max x + y s.t. x + 2y <= 4, 3x + y <= 6  (classic textbook LP)
   in standard form with slacks: variables (x, y, s1, s2). *)
let textbook () =
  let a =
    Matrix.of_arrays [| [| 1.0; 2.0; 1.0; 0.0 |]; [| 3.0; 1.0; 0.0; 1.0 |] |]
  in
  let c = [| -1.0; -1.0; 0.0; 0.0 |] in
  let b = [| 4.0; 6.0 |] in
  (a, b, c)

let textbook_optimum () =
  let a, b, c = textbook () in
  match Simplex.minimize ~c ~a b with
  | Simplex.Optimal { x; objective; _ } ->
      (* Optimum at the constraint intersection x = 8/5, y = 6/5. *)
      Test_util.check_close ~tol:1e-9 "objective" (-2.8) objective;
      Test_util.check_close ~tol:1e-9 "x" 1.6 x.(0);
      Test_util.check_close ~tol:1e-9 "y" 1.2 x.(1);
      Alcotest.(check bool) "feasible" true (Simplex.check_feasible ~a ~b x)
  | _ -> Alcotest.fail "expected Optimal"

let duals_satisfy_complementarity () =
  let a, b, c = textbook () in
  match Simplex.minimize ~c ~a b with
  | Simplex.Optimal { x; objective; dual } ->
      (* Strong duality: b . y = c . x at the optimum. *)
      Test_util.check_close ~tol:1e-9 "strong duality" objective (Vec.dot b dual);
      (* Reduced costs nonnegative for every column. *)
      for j = 0 to 3 do
        let col = Matrix.col a j in
        Alcotest.(check bool)
          (Printf.sprintf "reduced cost %d" j)
          true
          (c.(j) -. Vec.dot col dual >= -1e-9)
      done;
      ignore x
  | _ -> Alcotest.fail "expected Optimal"

let infeasible_detected () =
  (* x = 1 and x = 2 simultaneously. *)
  let a = Matrix.of_arrays [| [| 1.0 |]; [| 1.0 |] |] in
  match Simplex.minimize ~c:[| 1.0 |] ~a [| 1.0; 2.0 |] with
  | Simplex.Infeasible -> ()
  | _ -> Alcotest.fail "expected Infeasible"

let unbounded_detected () =
  (* minimize -x - y  s.t.  x - y = 0: the ray x = y -> infinity. *)
  let a = Matrix.of_arrays [| [| 1.0; -1.0 |] |] in
  match Simplex.minimize ~c:[| -1.0; -1.0 |] ~a [| 0.0 |] with
  | Simplex.Unbounded -> ()
  | _ -> Alcotest.fail "expected Unbounded"

let negative_rhs_handled () =
  (* -x = -3 -> x = 3. *)
  let a = Matrix.of_arrays [| [| -1.0 |] |] in
  match Simplex.minimize ~c:[| 2.0 |] ~a [| -3.0 |] with
  | Simplex.Optimal { x; objective; _ } ->
      Test_util.check_close ~tol:1e-9 "x" 3.0 x.(0);
      Test_util.check_close ~tol:1e-9 "objective" 6.0 objective
  | _ -> Alcotest.fail "expected Optimal"

let degenerate_vertex () =
  (* Three constraints meeting at one vertex (classic degeneracy):
     min -x1 s.t. x1 + s1 = 1; x1 + x2 + s2 = 1; x1 - x2 + s3 = 1. *)
  let a =
    Matrix.of_arrays
      [|
        [| 1.0; 0.0; 1.0; 0.0; 0.0 |];
        [| 1.0; 1.0; 0.0; 1.0; 0.0 |];
        [| 1.0; -1.0; 0.0; 0.0; 1.0 |];
      |]
  in
  match Simplex.minimize ~c:[| -1.0; 0.0; 0.0; 0.0; 0.0 |] ~a [| 1.0; 1.0; 1.0 |] with
  | Simplex.Optimal { objective; _ } ->
      Test_util.check_close ~tol:1e-9 "degenerate optimum" (-1.0) objective
  | _ -> Alcotest.fail "expected Optimal"

let badly_scaled_problem () =
  (* Mix 1e6 and 1e-3 coefficients; equilibration must cope.
     x/1000 + 1e6 y = 1, x + y + s = 1000 -> push x up. *)
  let a =
    Matrix.of_arrays [| [| 1e-3; 1e6; 0.0 |]; [| 1.0; 1.0; 1.0 |] |]
  in
  match Simplex.minimize ~c:[| -1.0; 0.0; 0.0 |] ~a [| 1.0; 1000.0 |] with
  | Simplex.Optimal { x; _ } ->
      Alcotest.(check bool) "feasible" true
        (Simplex.check_feasible ~a ~b:[| 1.0; 1000.0 |] x);
      (* x = 1000 - tiny y contribution; certainly > 990. *)
      Alcotest.(check bool) "x nearly 1000" true (x.(0) > 990.0)
  | _ -> Alcotest.fail "expected Optimal"

let validation () =
  Test_util.check_raises_invalid "shape" (fun () ->
      ignore (Simplex.minimize ~c:[| 1.0 |] ~a:(Matrix.create 1 2) [| 0.0 |]))

(* A duplicated equality row is a caller error, typed like the shape
   checks: [Invalid_argument], which the failure taxonomy classes as
   [invalid-argument]. *)
let redundant_row_is_invalid_argument () =
  let a = Matrix.of_arrays [| [| 1.0; 1.0 |]; [| 1.0; 1.0 |] |] in
  match Simplex.minimize ~c:[| 1.0; 1.0 |] ~a [| 1.0; 1.0 |] with
  | _ -> Alcotest.fail "a redundant row was accepted"
  | exception (Invalid_argument _ as exn) -> (
      match Dpm_robust.Error.of_exn exn with
      | Some (Dpm_robust.Error.Invalid_model [ d ]) ->
          Alcotest.(check string)
            "class" "invalid-argument" d.Dpm_robust.Diagnostic.code
      | _ -> Alcotest.fail "not classed as invalid-argument")

(* Random LPs built around a known feasible point: the solver must
   return a feasible answer at least as good. *)
let random_lp_gen =
  QCheck2.Gen.(
    int_range 1 5 >>= fun m ->
    int_range 1 6 >>= fun extra ->
    let n = m + extra in
    list_repeat (m * n) (float_range (-3.0) 3.0) >>= fun entries ->
    list_repeat n (float_range 0.0 2.0) >>= fun point ->
    list_repeat n (float_range 0.0 4.0) >>= fun cost ->
    let a =
      let e = Array.of_list entries in
      Matrix.init m n (fun i j -> e.((i * n) + j))
    in
    let x0 = Array.of_list point in
    let b = Matrix.mul_vec a x0 in
    return (a, b, Array.of_list cost, x0))

let prop_sound_on_random_feasible =
  Test_util.qtest ~count:120 "optimal is feasible and beats the witness"
    random_lp_gen
    (fun (a, b, c, x0) ->
      match Simplex.minimize ~c ~a b with
      | Simplex.Optimal { x; objective; _ } ->
          Simplex.check_feasible ~tol:1e-5 ~a ~b x
          && objective <= Vec.dot c x0 +. 1e-6 *. (1.0 +. Float.abs (Vec.dot c x0))
      | Simplex.Unbounded -> true (* possible: costs >= 0 but recession rays exist *)
      | Simplex.Infeasible -> false (* impossible: x0 is feasible *))

let prop_strong_duality =
  Test_util.qtest ~count:120 "strong duality on random LPs" random_lp_gen
    (fun (a, b, c, _) ->
      match Simplex.minimize ~c ~a b with
      | Simplex.Optimal { objective; dual; _ } ->
          Float.abs (objective -. Vec.dot b dual)
          <= 1e-6 *. (1.0 +. Float.abs objective)
      | Simplex.Unbounded | Simplex.Infeasible -> true)

let suite =
  [
    t "textbook optimum" `Quick textbook_optimum;
    t "duals / strong duality" `Quick duals_satisfy_complementarity;
    t "infeasible" `Quick infeasible_detected;
    t "unbounded" `Quick unbounded_detected;
    t "negative rhs" `Quick negative_rhs_handled;
    t "degenerate vertex" `Quick degenerate_vertex;
    t "badly scaled" `Quick badly_scaled_problem;
    t "validation" `Quick validation;
    prop_sound_on_random_feasible;
    prop_strong_duality;
    t "redundant row is a caller error" `Quick
      redundant_row_is_invalid_argument;
  ]
