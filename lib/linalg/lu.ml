exception Singular of int

(* The kernels below index [lu] directly: under dune's dev profile
   every module is compiled [-opaque], so a [Matrix.get] per entry
   would be an unknown call plus a boxed result in the O(n^3) loop.
   Unchecked accesses stay inside loops bounded by [n], and
   [Array.length lu = n * n] by construction. *)
type t = {
  n : int;
  lu : float array;
      (* row-major n x n: packed L (unit diagonal, below) and U (on/above) *)
  perm : int array; (* row permutation: row [i] of U came from [perm.(i)] *)
  sign : float; (* permutation parity, for determinants *)
}

let decompose ?(pivot_tol = 1e-13) a =
  let n = Matrix.rows a in
  if Matrix.cols a <> n then invalid_arg "Lu.decompose: matrix not square";
  Dpm_obs.Probe.incr "lu.factorizations";
  let lu = Matrix.to_row_major a in
  let perm = Array.init n (fun i -> i) in
  let sign = ref 1.0 in
  let scale = Float.max 1.0 (Matrix.max_abs a) in
  let threshold = pivot_tol *. scale in
  for k = 0 to n - 1 do
    let rk = k * n in
    (* Partial pivoting: bring the first largest remaining entry of
       column k to the diagonal. *)
    let pivot_row = ref k in
    let best = ref (Float.abs (Array.unsafe_get lu (rk + k))) in
    for i = k + 1 to n - 1 do
      let x = Float.abs (Array.unsafe_get lu ((i * n) + k)) in
      if x > !best then begin
        pivot_row := i;
        best := x
      end
    done;
    if !pivot_row <> k then begin
      let rp = !pivot_row * n in
      for j = 0 to n - 1 do
        let t = Array.unsafe_get lu (rk + j) in
        Array.unsafe_set lu (rk + j) (Array.unsafe_get lu (rp + j));
        Array.unsafe_set lu (rp + j) t
      done;
      let t = perm.(k) in
      perm.(k) <- perm.(!pivot_row);
      perm.(!pivot_row) <- t;
      sign := -. !sign
    end;
    let pivot = Array.unsafe_get lu (rk + k) in
    if Float.abs pivot < threshold then begin
      Dpm_obs.Probe.incr "lu.singular";
      raise (Singular k)
    end;
    for i = k + 1 to n - 1 do
      let ri = i * n in
      let factor = Array.unsafe_get lu (ri + k) /. pivot in
      Array.unsafe_set lu (ri + k) factor;
      if factor <> 0.0 then
        for j = k + 1 to n - 1 do
          Array.unsafe_set lu (ri + j)
            (Array.unsafe_get lu (ri + j)
            -. (factor *. Array.unsafe_get lu (rk + j)))
        done
    done
  done;
  { n; lu; perm; sign = !sign }

let solve_factored { n; lu; perm; _ } b =
  if Vec.dim b <> n then invalid_arg "Lu.solve_factored: dimension mismatch";
  Dpm_obs.Probe.incr "lu.solves";
  (* Forward substitution with the permuted right-hand side. *)
  let y = Vec.init n (fun i -> b.(perm.(i))) in
  for i = 0 to n - 1 do
    let ri = i * n in
    let yi = ref (Array.unsafe_get y i) in
    for j = 0 to i - 1 do
      yi := !yi -. (Array.unsafe_get lu (ri + j) *. Array.unsafe_get y j)
    done;
    Array.unsafe_set y i !yi
  done;
  (* Back substitution. *)
  for i = n - 1 downto 0 do
    let ri = i * n in
    let yi = ref (Array.unsafe_get y i) in
    for j = i + 1 to n - 1 do
      yi := !yi -. (Array.unsafe_get lu (ri + j) *. Array.unsafe_get y j)
    done;
    Array.unsafe_set y i (!yi /. Array.unsafe_get lu (ri + i))
  done;
  y

(* [A = P^T L U], so [A^T y = b] is [U^T z = b] (forward, U's
   diagonal), [L^T w = z] (backward, unit diagonal), then [y] is [w]
   under the inverse permutation.  Both sweeps walk a column of the
   row-major factors. *)
let solve_transposed_factored { n; lu; perm; _ } b =
  if Vec.dim b <> n then
    invalid_arg "Lu.solve_transposed_factored: dimension mismatch";
  Dpm_obs.Probe.incr "lu.solves";
  let z = Vec.copy b in
  for i = 0 to n - 1 do
    let zi = ref (Array.unsafe_get z i) in
    for j = 0 to i - 1 do
      zi := !zi -. (Array.unsafe_get lu ((j * n) + i) *. Array.unsafe_get z j)
    done;
    Array.unsafe_set z i (!zi /. Array.unsafe_get lu ((i * n) + i))
  done;
  for i = n - 1 downto 0 do
    let zi = ref (Array.unsafe_get z i) in
    for j = i + 1 to n - 1 do
      zi := !zi -. (Array.unsafe_get lu ((j * n) + i) *. Array.unsafe_get z j)
    done;
    Array.unsafe_set z i !zi
  done;
  let y = Vec.create n in
  Array.iteri (fun i p -> y.(p) <- z.(i)) perm;
  y

let solve ?pivot_tol a b = solve_factored (decompose ?pivot_tol a) b

let solve_many ?pivot_tol a bs =
  let f = decompose ?pivot_tol a in
  List.map (solve_factored f) bs

let det { n; lu; sign; _ } =
  let d = ref sign in
  for i = 0 to n - 1 do
    d := !d *. lu.((i * n) + i)
  done;
  !d

let inverse ?pivot_tol a =
  let n = Matrix.rows a in
  let f = decompose ?pivot_tol a in
  let inv = Matrix.create n n in
  for j = 0 to n - 1 do
    let e = Vec.create n in
    e.(j) <- 1.0;
    let x = solve_factored f e in
    for i = 0 to n - 1 do
      Matrix.set inv i j x.(i)
    done
  done;
  inv

let residual_norm a x b = Vec.norm_inf (Vec.sub (Matrix.mul_vec a x) b)
