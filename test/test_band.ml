(* The band kernels against the dense ones.  [Band.decompose] must
   perform [Lu.decompose]'s arithmetic on the same matrix, so a banded
   solve equals dense LU on the explicitly assembled dense system bit
   for bit; banded GTH in a bandwidth-reducing order must agree with
   the natural-order elimination to rounding. *)

open Dpm_linalg
open Dpm_ctmc
module Model = Dpm_ctmdp.Model
module Policy = Dpm_ctmdp.Policy

let t = Alcotest.test_case
let bits = Int64.bits_of_float
let same_vec_bits u v =
  Array.length u = Array.length v
  && Array.for_all2 (fun x y -> Int64.equal (bits x) (bits y)) u v

(* --- banded LU against dense LU ------------------------------------------ *)

(* Entries from {0, +-0.5, +-1, random}: ties in pivot magnitude, zero
   multipliers, forced row swaps and singular systems all come up. *)
let entry_gen =
  QCheck2.Gen.(
    oneof
      [
        pure 0.0;
        pure 0.5;
        pure (-0.5);
        pure 1.0;
        pure (-1.0);
        float_range (-3.0) 3.0;
      ])

type system = { band : Band.t; rhs : Vec.t; pivot_tol : float }

let system_gen =
  QCheck2.Gen.(
    int_range 1 12 >>= fun n ->
    int_range 0 3 >>= fun kl ->
    int_range 0 3 >>= fun ku ->
    let width = kl + ku + 2 in
    map3
      (fun entries rhs pivot_tol ->
        let e = Array.of_list entries in
        let band = Band.create ~n ~kl ~ku in
        for i = 0 to n - 1 do
          for j = max 0 (i - kl) to min (n - 2) (i + ku) do
            Band.set band i j e.((i * width) + (j - i + kl))
          done;
          Band.set band i (n - 1) e.((i * width) + width - 1)
        done;
        { band; rhs = Array.of_list rhs; pivot_tol })
      (list_repeat (n * width) entry_gen)
      (list_repeat n (float_range (-3.0) 3.0))
      (oneofl [ 1e-13; 0.3 ]))

let print_system { band; rhs; pivot_tol } =
  Format.asprintf "%a@ b = %a@ pivot_tol = %g" Matrix.pp (Band.to_dense band)
    Vec.pp rhs pivot_tol

type outcome = Solved of Vec.t | Singular_at of int

let outcome f = match f () with x -> Solved x | exception Lu.Singular k -> Singular_at k

let band_outcome { band; rhs; pivot_tol } =
  outcome (fun () -> Band.solve ~pivot_tol band rhs)

let dense_outcome { band; rhs; pivot_tol } =
  outcome (fun () -> Lu.solve ~pivot_tol (Band.to_dense band) rhs)

let prop_band_bitwise =
  Test_util.qtest ~count:2000 ~print:print_system
    "banded solve and Singular payload equal dense LU bit for bit" system_gen
    (fun s ->
      match (band_outcome s, dense_outcome s) with
      | Solved x, Solved y -> same_vec_bits x y
      | Singular_at k, Singular_at k' -> k = k'
      | _ -> false)

(* The generator draws singular and regular systems, and systems whose
   elimination swaps rows. *)
let band_outcomes_drawn () =
  let rand = Random.State.make [| 23 |] in
  let singular = ref 0 and solved = ref 0 and swapped = ref 0 in
  for _ = 1 to 500 do
    let s = QCheck2.Gen.generate1 ~rand system_gen in
    (match band_outcome s with
    | Solved _ -> incr solved
    | Singular_at _ -> incr singular);
    let a = Band.to_dense s.band in
    let n = Matrix.rows a in
    if n > 1 && Float.abs (Matrix.get a 1 0) > Float.abs (Matrix.get a 0 0) then
      incr swapped
  done;
  if !singular < 25 || !solved < 25 || !swapped < 25 then
    Alcotest.failf "singular %d, solved %d, first-step swaps %d of 500 draws"
      !singular !solved !swapped

(* --- relative-value systems ---------------------------------------------- *)

(* Random CTMDPs on 2..9 states.  [split] > 0 cuts the states into
   [0, split) and [split, n) and keeps every transition inside its
   part, so every policy is multichain. *)
let mdp_gen =
  QCheck2.Gen.(
    int_range 2 9 >>= fun n ->
    int_range 0 (n - 1) >>= fun split ->
    let part i = if split > 0 && i < split then (0, split) else (split, n) in
    let choice_gen i =
      let lo, hi = part i in
      map2
        (fun targets cost ->
          let rates =
            List.filter_map
              (fun (j, r) -> if j <> i && j >= lo && j < hi then Some (j, r) else None)
              targets
          in
          (rates, cost))
        (list_size (int_range 1 3)
           (pair (int_range 0 (n - 1)) (float_range 0.1 3.0)))
        (float_range 0.0 5.0)
    in
    let state_gen i = list_size (int_range 1 2) (choice_gen i) in
    let rec states i acc =
      if i < 0 then pure acc
      else state_gen i >>= fun cs -> states (i - 1) (cs :: acc)
    in
    map2
      (fun table pick ->
        let m =
          Model.create ~num_states:n (fun i ->
              List.mapi
                (fun k (rates, cost) -> { Model.action = k; rates; cost })
                (List.nth table i))
        in
        let p =
          Policy.of_choice_indices m
            (Array.init n (fun i -> pick mod Model.num_choices m i))
        in
        (split > 0, m, p))
      (states (n - 1) []) (int_range 0 1))

let dense_evaluation m p =
  let a, b = Test_util.dense_pi_system m p in
  Lu.solve a b

let multichain_singular_on_both =
  Test_util.qtest ~count:500 "banded and dense evaluation fail together"
    mdp_gen (fun (multichain, m, p) ->
      let band =
        match Dpm_ctmdp.Policy_iteration.evaluate m p with
        | _ -> false
        | exception Lu.Singular _ -> true
      in
      let dense =
        match dense_evaluation m p with
        | _ -> false
        | exception Lu.Singular _ -> true
      in
      band = dense && ((not multichain) || band))

(* --- orderings ------------------------------------------------------------- *)

let model_edges m f =
  for i = 0 to Model.num_states m - 1 do
    for k = 0 to Model.num_choices m i - 1 do
      List.iter (fun (j, _) -> f i j) (Model.choice m i k).Model.rates
    done
  done

let is_ordering n (o : Band.ordering) =
  Array.length o.Band.order = n
  && Array.for_all2 ( = ) (Array.map (fun s -> o.Band.order.(s)) o.Band.position)
       (Array.init n Fun.id)

let rcm_deterministic () =
  let m = Dpm_core.Sys_model.to_ctmdp (Test_util.paper_at_capacity 40) ~weight:1.0 in
  let n = Model.num_states m in
  let forward = Band.rcm n (model_edges m) in
  (* The same edge set, reported backwards and twice over. *)
  let edges = ref [] in
  model_edges m (fun i j -> edges := (i, j) :: !edges);
  let backward f =
    List.iter (fun (i, j) -> f j i) !edges;
    List.iter (fun (i, j) -> f i j) !edges
  in
  let again = Band.rcm n backward in
  Alcotest.(check bool) "a permutation" true (is_ordering n forward);
  Alcotest.(check (array int)) "edge report order is irrelevant"
    forward.Band.order again.Band.order;
  Alcotest.(check (array int)) "repeatable" forward.Band.order
    (Band.rcm n (model_edges m)).Band.order;
  let late = Band.rcm ~late:0 n (model_edges m) in
  Alcotest.(check bool) "late orientation keeps the bandwidth" true
    (late.Band.half_bandwidth = forward.Band.half_bandwidth
    && 2 * late.Band.position.(0) >= n - 1)

let sys_half_bandwidth () =
  List.iter
    (fun q ->
      let m =
        Dpm_core.Sys_model.to_ctmdp (Test_util.paper_at_capacity q) ~weight:1.0
      in
      let n = Model.num_states m in
      let o = Band.rcm ~late:0 n (model_edges m) in
      if o.Band.half_bandwidth > 5 then
        Alcotest.failf "Q = %d (%d states): half-bandwidth %d" q n
          o.Band.half_bandwidth;
      let natural = Band.natural n (model_edges m) in
      if natural.Band.half_bandwidth <= o.Band.half_bandwidth then
        Alcotest.failf "Q = %d: natural order is already as narrow" q)
    [ 40; 100; 800 ]

(* --- banded GTH ------------------------------------------------------------ *)

let close_rel ~rel p q =
  Array.length p = Array.length q
  && Array.for_all2
       (fun x y -> Float.abs (x -. y) <= rel *. Float.max (Float.abs y) 1e-300)
       p q

(* Irreducible generators: a cycle through every state plus random
   rates, indices shuffled so the natural order is not banded. *)
let irreducible_gen =
  QCheck2.Gen.(
    int_range 2 40 >>= fun n ->
    map3
      (fun perm extra cycle_rates ->
        let perm = Array.of_list perm in
        let rates = ref [] in
        List.iteri
          (fun k r -> rates := (perm.(k), perm.((k + 1) mod n), r) :: !rates)
          cycle_rates;
        List.iter
          (fun (i, j, r) -> if i <> j then rates := (i, j, r) :: !rates)
          extra;
        Generator.of_rates ~dim:n !rates)
      (shuffle_l (List.init n Fun.id))
      (list_size (int_range 0 (3 * n))
         (triple (int_range 0 (n - 1)) (int_range 0 (n - 1))
            (oneof [ float_range 0.01 5.0; pure 1e6 ])))
      (list_repeat n (float_range 0.01 5.0)))

let prop_gth_orders_agree =
  Test_util.qtest ~count:300
    "RCM-order solve agrees with natural-order GTH to 1e-12" irreducible_gen
    (fun g -> close_rel ~rel:1e-12 (Steady_state.solve g) (Steady_state.gth g))

(* Policy chains with transient states: [solve] restricts to the
   closed class itself.  Reference: restrict through a generator of
   the class and run natural-order GTH on it. *)
let restricted_solve_agrees () =
  let sys = Test_util.paper_at_capacity 20 in
  List.iter
    (fun weight ->
      let sol = Dpm_core.Optimize.solve ~weight sys in
      let g =
        Dpm_core.Sys_model.generator_of_actions sys ~actions:(fun s ->
            sol.Dpm_core.Optimize.actions.(Dpm_core.Sys_model.index sys s))
      in
      match Structure.recurrent_classes g with
      | [ members ] ->
          let members = Array.of_list (List.sort compare members) in
          let local = Array.make (Generator.dim g) (-1) in
          Array.iteri (fun k s -> local.(s) <- k) members;
          let rates = ref [] in
          Array.iter
            (fun s ->
              Generator.iter_row g s (fun j r ->
                  rates := (local.(s), local.(j), r) :: !rates))
            members;
          let sub =
            Steady_state.gth
              (Generator.of_rates ~dim:(Array.length members) !rates)
          in
          let expected = Vec.create (Generator.dim g) in
          Array.iteri (fun k s -> expected.(s) <- sub.(k)) members;
          if Array.length members = Generator.dim g then
            Alcotest.failf "w = %g: no transient state to restrict away" weight;
          if not (close_rel ~rel:1e-12 (Steady_state.solve g) expected) then
            Alcotest.failf "w = %g: restricted solve differs" weight
      | _ -> Alcotest.failf "w = %g: expected one closed class" weight)
    [ 0.5; 1.0; 5.0; 20.0 ]

(* --- allocation guard ------------------------------------------------------ *)

(* A 2000-state band (kl = 3, ku = 2) whose subdiagonal dominates its
   diagonal, so every elimination step swaps rows.  The factorization
   may allocate its band factors, the dense column and the pivot
   indices, and little else. *)
let decompose_allocation () =
  let n = 2000 and kl = 3 and ku = 2 in
  let a = Band.create ~n ~kl ~ku in
  for i = 0 to n - 1 do
    for j = max 0 (i - kl) to min (n - 2) (i + ku) do
      let x =
        if j = i - 1 then 8.0 else float_of_int ((((i * 7) + (j * 13)) mod 5) - 2)
      in
      Band.set a i j x
    done;
    Band.set a i (n - 1) (-1.0)
  done;
  ignore (Band.decompose a);
  let before = Gc.allocated_bytes () in
  let f = Band.decompose a in
  let words = (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8) in
  let factors = (n * ((2 * kl) + ku + 1)) + (2 * n) in
  let budget = (1.25 *. float_of_int factors) +. 1024.0 in
  if words > budget then
    Alcotest.failf "Band.decompose allocated %.0f words (budget %.0f)" words
      budget;
  let b = Vec.init n (fun i -> float_of_int (i mod 5)) in
  let x = Band.solve_factored f b in
  if Band.residual_norm a x b > 1e-9 then Alcotest.fail "residual too large"

let out_of_band_rejected () =
  let a = Band.create ~n:6 ~kl:1 ~ku:1 in
  Test_util.check_raises_invalid "below the band" (fun () -> Band.set a 3 0 1.0);
  Test_util.check_raises_invalid "above the band" (fun () -> Band.add a 0 3 1.0);
  Test_util.check_raises_invalid "out of range" (fun () -> Band.get a 6 0);
  Band.set a 0 5 2.0;
  Alcotest.(check (float 0.0)) "the dense column takes any row" 2.0
    (Band.get a 0 5)

let suite =
  [
    prop_band_bitwise;
    t "generator draws singular, regular and swapping systems" `Quick
      band_outcomes_drawn;
    multichain_singular_on_both;
    t "RCM is deterministic; late orientation" `Quick rcm_deterministic;
    t "SYS half-bandwidth at most 5 (Q = 40, 100, 800)" `Quick
      sys_half_bandwidth;
    prop_gth_orders_agree;
    t "restricted solve agrees with natural-order GTH" `Quick
      restricted_solve_agrees;
    t "banded decompose allocates only its factors" `Quick decompose_allocation;
    t "out-of-band entries are rejected" `Quick out_of_band_rejected;
  ]
