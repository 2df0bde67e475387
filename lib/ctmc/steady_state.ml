open Dpm_linalg

exception Not_irreducible of string

let gth ?(guard = fun () -> ()) g =
  let n = Generator.dim g in
  if n = 1 then [| 1.0 |]
  else begin
    (* Work on the off-diagonal rates only; GTH never consults the
       diagonal and performs only additions/multiplications/divisions,
       hence its numerical robustness.  [a] is row-major n x n, indexed
       directly (see [Lu]): unchecked accesses stay below [n * n]. *)
    let a = Matrix.to_row_major (Generator.to_matrix g) in
    for i = 0 to n - 1 do
      a.((i * n) + i) <- 0.0
    done;
    (* Elimination: fold state k into states 0..k-1. *)
    for k = n - 1 downto 1 do
      guard ();
      let rk = k * n in
      let s = ref 0.0 in
      for j = 0 to k - 1 do
        s := !s +. Array.unsafe_get a (rk + j)
      done;
      let s = !s in
      if s > 0.0 then begin
        for i = 0 to k - 1 do
          let ik = (i * n) + k in
          Array.unsafe_set a ik (Array.unsafe_get a ik /. s)
        done;
        for i = 0 to k - 1 do
          let ri = i * n in
          let aik = Array.unsafe_get a (ri + k) in
          if aik > 0.0 then
            for j = 0 to k - 1 do
              if j <> i then
                Array.unsafe_set a (ri + j)
                  (Array.unsafe_get a (ri + j)
                  +. (aik *. Array.unsafe_get a (rk + j)))
            done
        done
      end
    done;
    (* Back substitution. *)
    let p = Vec.create n in
    p.(0) <- 1.0;
    for k = 1 to n - 1 do
      let acc = ref 0.0 in
      for i = 0 to k - 1 do
        acc := !acc +. (p.(i) *. Array.unsafe_get a ((i * n) + k))
      done;
      p.(k) <- !acc
    done;
    Vec.normalize1 p
  end

let lu_solve g =
  let n = Generator.dim g in
  (* Solve G^T p = 0 with the last equation replaced by sum p = 1. *)
  let a = Matrix.transpose (Generator.to_matrix g) in
  for j = 0 to n - 1 do
    Matrix.set a (n - 1) j 1.0
  done;
  let b = Vec.create n in
  b.(n - 1) <- 1.0;
  Lu.solve a b

let iterative ?tol ?max_iter ?guard g =
  Iterative.gauss_seidel_steady ?tol ?max_iter ?guard (Generator.to_sparse g)

let implicit ?tol ?max_iter ?guard ?init ?order op =
  Operator.gauss_seidel_steady ?tol ?max_iter ?guard ?init ?order op

let solve_irreducible ?guard g =
  if Generator.is_dense_backed g then gth ?guard g
  else begin
    let r = iterative ?guard g in
    if not r.Iterative.converged then begin
      (* Fall back on the exact dense path rather than return garbage;
         the fallback is counted so operators can see sweeps failing. *)
      Dpm_obs.Probe.incr "steady_state.gth_fallbacks";
      gth ?guard g
    end
    else r.Iterative.solution
  end

(* Restrict the generator to a subset of states (which must be closed:
   no rates leaving the subset). *)
let restrict g members =
  let members = Array.of_list (List.sort compare members) in
  let m = Array.length members in
  let local = Hashtbl.create m in
  Array.iteri (fun k s -> Hashtbl.replace local s k) members;
  let rates = ref [] in
  Array.iter
    (fun s ->
      Generator.iter_row g s (fun j r ->
          match Hashtbl.find_opt local j with
          | Some j' -> rates := (Hashtbl.find local s, j', r) :: !rates
          | None ->
              raise
                (Not_irreducible
                   (Printf.sprintf "class is not closed: %d -> %d leaves it" s j))))
    members;
  (Generator.of_rates ~dim:m !rates, members)

let solve ?(check = false) ?guard g =
  ignore check;
  (* GTH (and the iterative sweeps) assume an irreducible chain, but
     policy-induced chains routinely have transient states (states the
     closed-loop dynamics never revisit).  Classify first: a unique
     closed class gets solved in isolation and zero-extended; several
     closed classes mean the limiting distribution depends on the
     start state, which we refuse. *)
  match Structure.recurrent_classes g with
  | [] -> raise (Not_irreducible "chain has no closed class")
  | [ members ] ->
      if List.length members = Generator.dim g then solve_irreducible ?guard g
      else begin
        let sub, index_of = restrict g members in
        let p_sub = solve_irreducible ?guard sub in
        let p = Vec.create (Generator.dim g) in
        Array.iteri (fun k s -> p.(s) <- p_sub.(k)) index_of;
        p
      end
  | cs ->
      raise
        (Not_irreducible
           (Printf.sprintf "chain has %d closed classes; the limiting \
                            distribution is not unique"
              (List.length cs)))

let residual g p = Vec.norm_inf (Sparse.vec_mul p (Generator.to_sparse g))

let expected_value p f =
  let acc = ref 0.0 in
  Array.iteri (fun i pi -> acc := !acc +. (pi *. f i)) p;
  !acc
