(* The dense O(n^3) kernels ([Lu], [Steady_state.gth]) index a flat
   row-major array.  Their arithmetic must match the straightforward
   [Matrix.get]/[Matrix.set] formulation bit for bit: the same
   operations in the same order, the same pivot choice, the same
   singularity threshold.  The reference kernels below are that
   formulation, kept as it was written before the flat-array rewrite. *)

open Dpm_linalg
open Dpm_ctmc

let t = Alcotest.test_case

(* --- reference kernels ------------------------------------------------ *)

module Ref = struct
  type lu = { lu : Matrix.t; perm : int array; sign : float }

  let set_row m i v = Array.iteri (fun j x -> Matrix.set m i j x) v

  let decompose ?(pivot_tol = 1e-13) a =
    let n = Matrix.rows a in
    if Matrix.cols a <> n then invalid_arg "Lu.decompose: matrix not square";
    let lu = Matrix.copy a in
    let perm = Array.init n (fun i -> i) in
    let sign = ref 1.0 in
    let max_abs = Matrix.fold (fun acc x -> Float.max acc (Float.abs x)) 0.0 a in
    let scale = Float.max 1.0 max_abs in
    let threshold = pivot_tol *. scale in
    for k = 0 to n - 1 do
      let pivot_row = ref k in
      for i = k + 1 to n - 1 do
        if Float.abs (Matrix.get lu i k) > Float.abs (Matrix.get lu !pivot_row k)
        then pivot_row := i
      done;
      if !pivot_row <> k then begin
        let rk = Matrix.row lu k and rp = Matrix.row lu !pivot_row in
        set_row lu k rp;
        set_row lu !pivot_row rk;
        let t = perm.(k) in
        perm.(k) <- perm.(!pivot_row);
        perm.(!pivot_row) <- t;
        sign := -. !sign
      end;
      let pivot = Matrix.get lu k k in
      if Float.abs pivot < threshold then raise (Lu.Singular k);
      for i = k + 1 to n - 1 do
        let factor = Matrix.get lu i k /. pivot in
        Matrix.set lu i k factor;
        if factor <> 0.0 then
          for j = k + 1 to n - 1 do
            Matrix.set lu i j (Matrix.get lu i j -. (factor *. Matrix.get lu k j))
          done
      done
    done;
    { lu; perm; sign = !sign }

  let solve_factored { lu; perm; _ } b =
    let n = Matrix.rows lu in
    let y = Vec.init n (fun i -> b.(perm.(i))) in
    for i = 0 to n - 1 do
      for j = 0 to i - 1 do
        y.(i) <- y.(i) -. (Matrix.get lu i j *. y.(j))
      done
    done;
    for i = n - 1 downto 0 do
      for j = i + 1 to n - 1 do
        y.(i) <- y.(i) -. (Matrix.get lu i j *. y.(j))
      done;
      y.(i) <- y.(i) /. Matrix.get lu i i
    done;
    y

  let det { lu; sign; _ } =
    let n = Matrix.rows lu in
    let d = ref sign in
    for i = 0 to n - 1 do
      d := !d *. Matrix.get lu i i
    done;
    !d

  let gth g =
    let n = Generator.dim g in
    if n = 1 then [| 1.0 |]
    else begin
      let a = Generator.to_matrix g in
      for i = 0 to n - 1 do
        Matrix.set a i i 0.0
      done;
      for k = n - 1 downto 1 do
        let s = ref 0.0 in
        for j = 0 to k - 1 do
          s := !s +. Matrix.get a k j
        done;
        if !s > 0.0 then begin
          for i = 0 to k - 1 do
            Matrix.set a i k (Matrix.get a i k /. !s)
          done;
          for i = 0 to k - 1 do
            let aik = Matrix.get a i k in
            if aik > 0.0 then
              for j = 0 to k - 1 do
                if j <> i then
                  Matrix.set a i j (Matrix.get a i j +. (aik *. Matrix.get a k j))
              done
          done
        end
      done;
      let p = Vec.create n in
      p.(0) <- 1.0;
      for k = 1 to n - 1 do
        let acc = ref 0.0 in
        for i = 0 to k - 1 do
          acc := !acc +. (p.(i) *. Matrix.get a i k)
        done;
        p.(k) <- !acc
      done;
      Vec.normalize1 p
    end
end

(* --- bit-level comparison --------------------------------------------- *)

let bits = Int64.bits_of_float
let same_bits x y = Int64.equal (bits x) (bits y)

let same_vec_bits u v =
  Array.length u = Array.length v && Array.for_all2 same_bits u v

(* Entries from {0, +-0.5, +-1, random}: ties in pivot magnitude, zero
   multipliers, forced swaps and singular systems all come up. *)
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

let system_gen =
  QCheck2.Gen.(
    int_range 1 7 >>= fun n ->
    triple
      (map
         (fun l ->
           let a = Array.of_list l in
           Matrix.init n n (fun i j -> a.((i * n) + j)))
         (list_repeat (n * n) entry_gen))
      (map Array.of_list (list_repeat n entry_gen))
      (oneofl [ 1e-13; 0.3 ]))

let print_system (a, b, tol) =
  Format.asprintf "%a@ b = %a@ pivot_tol = %g" Matrix.pp a Vec.pp b tol

type outcome = Factored of Vec.t * float | Singular_at of int

let run decompose solve det a b =
  match decompose a with
  | f -> Factored (solve f b, det f)
  | exception Lu.Singular k -> Singular_at k

let prop_lu_bitwise =
  Test_util.qtest ~count:2000 ~print:print_system
    "LU solve, det and Singular payload match the reference bit for bit"
    system_gen
    (fun (a, b, pivot_tol) ->
      let ours = run (Lu.decompose ~pivot_tol) Lu.solve_factored Lu.det a b in
      let theirs =
        run (Ref.decompose ~pivot_tol) Ref.solve_factored Ref.det a b
      in
      match (ours, theirs) with
      | Factored (x, d), Factored (x', d') ->
          same_vec_bits x x' && same_bits d d'
      | Singular_at k, Singular_at k' -> k = k'
      | _ -> false)

(* The generator draws enough of both outcomes to exercise each branch. *)
let both_outcomes_drawn () =
  let rand = Random.State.make [| 19 |] in
  let singular = ref 0 and factored = ref 0 in
  for _ = 1 to 500 do
    let a, b, pivot_tol = QCheck2.Gen.generate1 ~rand system_gen in
    match run (Lu.decompose ~pivot_tol) Lu.solve_factored Lu.det a b with
    | Factored _ -> incr factored
    | Singular_at _ -> incr singular
  done;
  if !singular < 25 || !factored < 25 then
    Alcotest.failf "singular %d, factored %d of 500 draws" !singular !factored

let rate_gen =
  QCheck2.Gen.(
    oneof [ pure 0.0; pure 0.5; pure 1.0; float_range 0.0 3.0 ])

let generator_gen =
  QCheck2.Gen.(
    int_range 1 9 >>= fun n ->
    map
      (fun l ->
        let r = Array.of_list l in
        let rates = ref [] in
        for i = 0 to n - 1 do
          for j = 0 to n - 1 do
            if i <> j then rates := (i, j, r.((i * n) + j)) :: !rates
          done
        done;
        Generator.of_rates ~dim:n !rates)
      (list_repeat (n * n) rate_gen))

let prop_gth_bitwise =
  Test_util.qtest ~count:1000 "GTH vector matches the reference bit for bit"
    generator_gen (fun g -> same_vec_bits (Steady_state.gth g) (Ref.gth g))

(* [of_rates] builds one CSR matrix at every size; [of_matrix] keeps a
   dense one.  Both must hold the same entries to the bit (duplicate
   rates summed in list order, the diagonal summed in column order),
   and the stationary solve must not tell them apart, on chains of
   2-256 states. *)
let rate_list_gen =
  QCheck2.Gen.(
    oneof [ int_range 2 16; int_range 17 256; pure 256 ] >>= fun n ->
    let ring = List.init n (fun i -> (i, (i + 1) mod n, 0.25)) in
    map
      (fun extra ->
        ( n,
          ring
          @ List.filter_map
              (fun (i, j, r) ->
                let i = i mod n and j = j mod n in
                if i = j then None else Some (i, j, r))
              extra ))
      (list_size (int_range 0 (2 * n))
         (triple (int_range 0 255) (int_range 0 255) rate_gen)))

let prop_csr_dense_solve_bitwise =
  Test_util.qtest ~count:100 "solve on of_rates matches of_matrix bit for bit"
    rate_list_gen (fun (n, rates) ->
      let m = Matrix.create n n in
      List.iter (fun (i, j, r) -> Matrix.update m i j (fun x -> x +. r)) rates;
      for i = 0 to n - 1 do
        let out = ref 0.0 in
        for j = 0 to n - 1 do
          if j <> i then out := !out +. Matrix.get m i j
        done;
        Matrix.set m i i (-. !out)
      done;
      let csr = Generator.of_rates ~dim:n rates
      and dense = Generator.of_matrix m in
      let entries g =
        Array.init (n * n) (fun k -> Generator.get g (k / n) (k mod n))
      in
      same_vec_bits (entries csr) (entries dense)
      && same_vec_bits (Steady_state.solve csr) (Steady_state.solve dense))

(* --- allocation guard -------------------------------------------------- *)

(* A 300 x 300 diagonally dominant matrix with its rows shifted by one,
   cyclically: the dominant entry of every column sits in the last row,
   so every elimination step swaps.  The factorization may allocate its
   n^2 packed factors and little else: row swaps happen in place. *)
let decompose_allocation () =
  let n = 300 in
  let dominant i j =
    if i = j then float_of_int (4 * n)
    else float_of_int ((((i * 7) + (j * 13)) mod 11) - 5)
  in
  let a = Matrix.init n n (fun i j -> dominant ((i + 1) mod n) j) in
  ignore (Lu.decompose a);
  let before = Gc.allocated_bytes () in
  let f = Lu.decompose a in
  let bytes = Gc.allocated_bytes () -. before in
  let words = bytes /. float_of_int (Sys.word_size / 8) in
  let budget = (1.25 *. float_of_int (n * n)) +. 1024.0 in
  if words > budget then
    Alcotest.failf "Lu.decompose allocated %.0f words for n = %d (budget %.0f)"
      words n budget;
  (* The factors still solve the system. *)
  let b = Vec.init n (fun i -> float_of_int (i mod 5)) in
  let x = Lu.solve_factored f b in
  if Lu.residual_norm a x b > 1e-9 then Alcotest.fail "residual too large"

(* --- end-to-end pins --------------------------------------------------- *)

(* A dense-[Lu] evaluation's gain, in the assembly the pinned bits
   were recorded with. *)
let dense_gain m p =
  let a, b = Test_util.dense_pi_system m p in
  (Lu.solve a b).(0)

(* [Optimize.solve] on the paper SP.  [dense] is the gain, as Int64 bits
   of the double, that the [Matrix.get]-based dense kernels gave: a
   dense-[Lu] evaluation of the returned policy must still give it.
   The solver itself evaluates on the banded kernel, in band order;
   its gain ([band]) stays within 1e-14 relative of [dense].  Q = 40
   evaluates by the direct route throughout; Q = 100 (403 states)
   tries the iterative route and falls back to it. *)
let pinned_gains =
  [
    (40, 1.0, 4622943692342319814L, 4622943692342319806L);
    (40, 5.0, 4624285629779184524L, 4624285629779184526L);
    (40, 20.0, 4626905632388042100L, 4626905632388042101L);
    (100, 1.0, 4622943692342319814L, 4622943692342319806L);
    (100, 5.0, 4624285629779184524L, 4624285629779184526L);
    (100, 20.0, 4626905632388042100L, 4626905632388042101L);
  ]

let gains_pinned () =
  Dpm_cache.Solve_cache.with_capacity 0 @@ fun () ->
  List.iter
    (fun (q, weight, dense, band) ->
      let sys = Test_util.paper_at_capacity q in
      let sol = Dpm_core.Optimize.solve ~weight sys in
      let m = Dpm_core.Sys_model.to_ctmdp sys ~weight in
      let g = dense_gain m (Dpm_ctmdp.Policy.of_actions m sol.Dpm_core.Optimize.actions) in
      let pinned = Int64.float_of_bits dense in
      if not (Int64.equal (bits g) dense) then
        Alcotest.failf "Q = %d, w = %g: dense gain %.17g (bits %Ld), pinned %.17g"
          q weight g (bits g) pinned;
      let gap = Float.abs (sol.gain -. pinned) /. Float.abs pinned in
      if gap > 1e-14 then
        Alcotest.failf "Q = %d, w = %g: solver gain %.17g is %g from %.17g" q
          weight sol.gain gap pinned;
      if not (Int64.equal (bits sol.gain) band) then
        Alcotest.failf "Q = %d, w = %g: solver gain %.17g (bits %Ld), pinned %.17g"
          q weight sol.gain (bits sol.gain) (Int64.float_of_bits band))
    pinned_gains

let suite =
  [
    prop_lu_bitwise;
    t "generator draws singular and regular systems" `Quick both_outcomes_drawn;
    prop_gth_bitwise;
    t "decompose allocates only its factors" `Quick decompose_allocation;
    t "paper SP gains pinned to the bit" `Quick gains_pinned;
    prop_csr_dense_solve_bitwise;
  ]
