open Dpm_linalg

exception Not_irreducible of string

(* The rates of a chain as CSR rows in local state indices [0, n). *)
type rows = { n : int; start : int array; col : int array; rate : float array }

(* Rows of the states with [local.(s) >= 0], renumbered by [local].
   The set must be closed: a rate leaving it raises [Not_irreducible]. *)
let rows_of g ~local ~n =
  let start = Array.make (n + 1) 0 in
  for s = 0 to Generator.dim g - 1 do
    let i = local.(s) in
    if i >= 0 then
      Generator.iter_row g s (fun j _ ->
          if local.(j) < 0 then
            raise
              (Not_irreducible
                 (Printf.sprintf "class is not closed: %d -> %d leaves it" s j));
          start.(i + 1) <- start.(i + 1) + 1)
  done;
  for i = 1 to n do
    start.(i) <- start.(i) + start.(i - 1)
  done;
  let col = Array.make start.(n) 0 and rate = Array.make start.(n) 0.0 in
  let fill = Array.sub start 0 n in
  for s = 0 to Generator.dim g - 1 do
    let i = local.(s) in
    if i >= 0 then
      Generator.iter_row g s (fun j r ->
          col.(fill.(i)) <- local.(j);
          rate.(fill.(i)) <- r;
          fill.(i) <- fill.(i) + 1)
  done;
  { n; start; col; rate }

let all_rows g =
  let n = Generator.dim g in
  rows_of g ~local:(Array.init n Fun.id) ~n

let iter_edges { n; start; col; _ } f =
  for i = 0 to n - 1 do
    for e = start.(i) to start.(i + 1) - 1 do
      f i col.(e)
    done
  done

(* GTH elimination in the order [o]: position [k] holds state
   [o.order.(k)].  Eliminating the state at position k touches only
   positions [k - b, k - 1], so the work stays inside the band of
   half-width b, stored row-major with stride 2b + 1 and indexed
   directly (see [Lu]).  GTH never consults the diagonal and performs
   only additions/multiplications/divisions, hence its numerical
   robustness.  Over the zero entries outside the band that arithmetic
   is exact, so in natural order the result is bit-identical to the
   dense n x n elimination. *)
let gth_in ~guard { n; start; col; rate } (o : Band.ordering) =
  if n = 1 then [| 1.0 |]
  else begin
    let b = o.Band.half_bandwidth and pos = o.Band.position in
    let w = (2 * b) + 1 in
    (* Entry (k, j) at [k * w + j - k + b]. *)
    let base k = (k * w) - k + b in
    let a = Array.make (n * w) 0.0 in
    for i = 0 to n - 1 do
      let ri = base pos.(i) in
      for e = start.(i) to start.(i + 1) - 1 do
        a.(ri + pos.(col.(e))) <- rate.(e)
      done
    done;
    (* Elimination: fold position k into positions k-b..k-1. *)
    for k = n - 1 downto 1 do
      guard ();
      let rk = base k and lo = max 0 (k - b) in
      let s = ref 0.0 in
      for j = lo to k - 1 do
        s := !s +. Array.unsafe_get a (rk + j)
      done;
      let s = !s in
      if s > 0.0 then begin
        for i = lo to k - 1 do
          let ik = base i + k in
          Array.unsafe_set a ik (Array.unsafe_get a ik /. s)
        done;
        for i = lo to k - 1 do
          let ri = base i in
          let aik = Array.unsafe_get a (ri + k) in
          if aik > 0.0 then
            for j = lo to k - 1 do
              if j <> i then
                Array.unsafe_set a (ri + j)
                  (Array.unsafe_get a (ri + j)
                  +. (aik *. Array.unsafe_get a (rk + j)))
            done
        done
      end
    done;
    (* Back substitution, then back to state indices. *)
    let p = Vec.create n in
    p.(0) <- 1.0;
    for k = 1 to n - 1 do
      let acc = ref 0.0 in
      for i = max 0 (k - b) to k - 1 do
        acc := !acc +. (p.(i) *. Array.unsafe_get a (base i + k))
      done;
      p.(k) <- !acc
    done;
    Vec.normalize1 (Vec.init n (fun i -> p.(pos.(i))))
  end

let gth_rcm ~guard rows =
  gth_in ~guard rows (Band.rcm rows.n (iter_edges rows))

let gth ?(guard = fun () -> ()) g =
  let rows = all_rows g in
  gth_in ~guard rows (Band.natural rows.n (iter_edges rows))

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

let solve_irreducible ?(guard = fun () -> ()) g =
  if Generator.is_dense_backed g then gth_rcm ~guard (all_rows g)
  else begin
    let r = iterative ~guard g in
    if not r.Iterative.converged then begin
      (* Fall back on the exact path rather than return garbage; the
         fallback is counted so operators can see sweeps failing. *)
      Dpm_obs.Probe.incr "steady_state.gth_fallbacks";
      gth_rcm ~guard (all_rows g)
    end
    else r.Iterative.solution
  end

(* Closed classes up to this size go straight to GTH, larger ones to
   the sweeps: the size up to which [Generator.of_rates] stores a chain
   densely, so a class gets the route [solve_irreducible] gives a
   whole chain of its size. *)
let exact_class_limit = 256

let solve ?(check = false) ?(guard = fun () -> ()) g =
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
      let n = Generator.dim g in
      let m = List.length members in
      if m = n then solve_irreducible ~guard g
      else begin
        (* Local indices keep the states' order. *)
        let local = Array.make n (-1) in
        List.iter (fun s -> local.(s) <- 0) members;
        let k = ref 0 in
        for s = 0 to n - 1 do
          if local.(s) = 0 then begin
            local.(s) <- !k;
            incr k
          end
        done;
        let rows = rows_of g ~local ~n:m in
        let p_sub =
          if m <= exact_class_limit then gth_rcm ~guard rows
          else begin
            let rates = ref [] in
            for i = m - 1 downto 0 do
              for e = rows.start.(i + 1) - 1 downto rows.start.(i) do
                rates := (i, rows.col.(e), rows.rate.(e)) :: !rates
              done
            done;
            solve_irreducible ~guard (Generator.of_rates ~dim:m !rates)
          end
        in
        Array.init n (fun s -> if local.(s) >= 0 then p_sub.(local.(s)) else 0.0)
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
