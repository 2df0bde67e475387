open Dpm_linalg

exception Not_irreducible of string

(* The rates of a chain as CSR rows in local state indices [0, n). *)
type rows = { n : int; start : int array; col : int array; rate : float array }

(* All of [g]'s rates, read in one pass over its rows. *)
let all_rows g =
  let n = Generator.dim g in
  let start = Array.make (n + 1) 0 in
  let col = ref (Array.make (4 * n) 0) and rate = ref (Array.make (4 * n) 0.0) in
  let len = ref 0 in
  for i = 0 to n - 1 do
    Generator.iter_row g i (fun j r ->
        if !len = Array.length !col then begin
          col := Array.append !col !col;
          rate := Array.append !rate !rate
        end;
        Array.unsafe_set !col !len j;
        Array.unsafe_set !rate !len r;
        incr len);
    start.(i + 1) <- !len
  done;
  { n; start; col = !col; rate = !rate }

(* The rows of the states with [local.(s) >= 0], renumbered by [local],
   which keeps the states' order.  The set must be closed. *)
let restrict { n; start; col; rate } ~local ~m =
  let start' = Array.make (m + 1) 0 in
  let len = start.(n) in
  let col' = Array.make len 0 and rate' = Array.make len 0.0 in
  let k = ref 0 in
  for s = 0 to n - 1 do
    let i = local.(s) in
    if i >= 0 then begin
      for e = start.(s) to start.(s + 1) - 1 do
        col'.(!k) <- local.(col.(e));
        rate'.(!k) <- rate.(e);
        incr k
      done;
      start'.(i + 1) <- !k
    end
  done;
  { n = m; start = start'; col = col'; rate = rate' }

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
    (* Back substitution, then back to state indices.  The measure is
       anchored at p(0) = 1, so along the order it can grow or shrink
       past the float range (a deep tail, or a valley between two
       peaks).  Entry k is kept as [m.(k) * 2^e.(k)]: a sum is taken at
       the window's largest exponent and renormalised by [frexp] once
       it leaves [2^-600, 2^600].  Scaling by a power of two is exact,
       so while no entry leaves that range every exponent stays 0 and
       the result is bit-identical to the plain recurrence. *)
    let m = Vec.create n and e = Array.make n 0 in
    m.(0) <- 1.0;
    for k = 1 to n - 1 do
      let lo = max 0 (k - b) in
      let top = ref min_int in
      for i = lo to k - 1 do
        if e.(i) > !top && m.(i) *. Array.unsafe_get a (base i + k) > 0.0
        then top := e.(i)
      done;
      let top = if !top = min_int then 0 else !top in
      let acc = ref 0.0 in
      for i = lo to k - 1 do
        let x = m.(i) *. Array.unsafe_get a (base i + k) in
        acc := !acc +. if e.(i) = top then x else Float.ldexp x (e.(i) - top)
      done;
      let x = !acc in
      if x > 0x1p600 || (x > 0.0 && x < 0x1p-600) then begin
        let f, d = Float.frexp x in
        m.(k) <- f;
        e.(k) <- top + d
      end
      else begin
        m.(k) <- x;
        e.(k) <- top
      end
    done;
    (* One normalisation: the largest exponent maps to 2^0, and entries
       more than the float range below it are 0. *)
    let top = ref min_int in
    for k = 0 to n - 1 do
      if m.(k) > 0.0 && e.(k) > !top then top := e.(k)
    done;
    let top = !top in
    Vec.normalize1
      (Vec.init n (fun i ->
           let k = pos.(i) in
           if e.(k) = top then m.(k) else Float.ldexp m.(k) (e.(k) - top)))
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

let solve ?(guard = fun () -> ()) g =
  (* GTH assumes an irreducible chain, but policy-induced chains
     routinely have transient states (states the closed-loop dynamics
     never revisit).  Classify first: a unique closed class gets solved
     in isolation and zero-extended; several closed classes mean the
     limiting distribution depends on the start state, which we
     refuse. *)
  let rows = all_rows g in
  let succ =
    Array.init rows.n (fun i ->
        Array.sub rows.col rows.start.(i) (rows.start.(i + 1) - rows.start.(i)))
  in
  match Structure.closed_classes succ with
  | [] -> raise (Not_irreducible "chain has no closed class")
  | [ members ] ->
      let n = rows.n in
      (* Local indices keep the states' order. *)
      let local = Array.make n (-1) in
      List.iter (fun s -> local.(s) <- 0) members;
      let m = ref 0 in
      for s = 0 to n - 1 do
        if local.(s) = 0 then begin
          local.(s) <- !m;
          incr m
        end
      done;
      let class_rows = if !m = n then rows else restrict rows ~local ~m:!m in
      let p = gth_rcm ~guard class_rows in
      Array.init n (fun s -> if local.(s) >= 0 then p.(local.(s)) else 0.0)
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
