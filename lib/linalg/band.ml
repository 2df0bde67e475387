(* --- orderings ------------------------------------------------------------ *)

type ordering = { order : int array; position : int array; half_bandwidth : int }

let of_order n iter_edges order =
  let position = Array.make n 0 in
  Array.iteri (fun k s -> position.(s) <- k) order;
  let b = ref 0 in
  iter_edges (fun i j ->
      let d = abs (position.(i) - position.(j)) in
      if d > !b then b := d);
  { order; position; half_bandwidth = !b }

let natural n iter_edges = of_order n iter_edges (Array.init n Fun.id)

(* Reverse Cuthill-McKee on int arrays, O(n + nnz) and deterministic:
   the symmetric adjacency comes from two counting passes, duplicates
   go with a stamp array, and every neighbour list is put in
   (degree, index) order by one more counting pass — appending each
   node, in that global order, to its neighbours' lists — so no
   comparison sort runs.  Each component starts from a pseudo-peripheral
   node (George-Liu, a bounded number of BFS rounds from its smallest
   (degree, index) node).  Reversing the order keeps its bandwidth, so
   [late] may choose the orientation for free. *)
let peripheral_rounds = 4

let rcm ?late n iter_edges =
  let start = Array.make (n + 1) 0 in
  iter_edges (fun i j ->
      if i <> j then begin
        start.(i + 1) <- start.(i + 1) + 1;
        start.(j + 1) <- start.(j + 1) + 1
      end);
  for i = 1 to n do
    start.(i) <- start.(i) + start.(i - 1)
  done;
  let adj = Array.make (max 1 start.(n)) 0 in
  let cursor = Array.sub start 0 n in
  iter_edges (fun i j ->
      if i <> j then begin
        adj.(cursor.(i)) <- j;
        cursor.(i) <- cursor.(i) + 1;
        adj.(cursor.(j)) <- i;
        cursor.(j) <- cursor.(j) + 1
      end);
  (* Distinct neighbours, compacted to the front of each slice. *)
  let stamp = Array.make n (-1) and deg = Array.make n 0 in
  for i = 0 to n - 1 do
    let d = ref 0 in
    for e = start.(i) to start.(i + 1) - 1 do
      let j = adj.(e) in
      if stamp.(j) <> i then begin
        stamp.(j) <- i;
        adj.(start.(i) + !d) <- j;
        incr d
      end
    done;
    deg.(i) <- !d
  done;
  (* Nodes in (degree, index) order: a stable counting sort. *)
  let max_deg = Array.fold_left max 0 deg in
  let bucket = Array.make (max_deg + 2) 0 in
  Array.iter (fun d -> bucket.(d + 1) <- bucket.(d + 1) + 1) deg;
  for d = 1 to max_deg + 1 do
    bucket.(d) <- bucket.(d) + bucket.(d - 1)
  done;
  let by_degree = Array.make n 0 in
  for i = 0 to n - 1 do
    by_degree.(bucket.(deg.(i))) <- i;
    bucket.(deg.(i)) <- bucket.(deg.(i)) + 1
  done;
  let sorted = Array.make (max 1 start.(n)) 0 in
  Array.blit start 0 cursor 0 n;
  Array.iter
    (fun v ->
      for e = start.(v) to start.(v) + deg.(v) - 1 do
        let u = adj.(e) in
        sorted.(cursor.(u)) <- v;
        cursor.(u) <- cursor.(u) + 1
      done)
    by_degree;
  let placed = Array.make n false in
  let order = Array.make n 0 in
  (* Level-structure BFS over the unplaced component of [root], into
     [queue]; [seen] is stamped with [round] instead of cleared.
     Returns the number of nodes reached and the start of the last
     level in [queue]. *)
  let queue = Array.make n 0 and level = Array.make n 0 in
  let seen = Array.make n (-1) in
  let bfs round root =
    seen.(root) <- round;
    level.(root) <- 0;
    queue.(0) <- root;
    let head = ref 0 and tail = ref 1 in
    while !head < !tail do
      let u = queue.(!head) in
      incr head;
      for e = start.(u) to start.(u) + deg.(u) - 1 do
        let w = sorted.(e) in
        if seen.(w) <> round && not placed.(w) then begin
          seen.(w) <- round;
          level.(w) <- level.(u) + 1;
          queue.(!tail) <- w;
          incr tail
        end
      done
    done;
    let last = level.(queue.(!tail - 1)) in
    let first = ref (!tail - 1) in
    while !first > 0 && level.(queue.(!first - 1)) = last do
      decr first
    done;
    (!tail, !first, last)
  in
  (* The smallest (degree, index) node of the last level. *)
  let pick_last ~first ~count =
    let best = ref queue.(first) in
    for k = first + 1 to count - 1 do
      let v = queue.(k) in
      if deg.(v) < deg.(!best) || (deg.(v) = deg.(!best) && v < !best) then
        best := v
    done;
    !best
  in
  let round = ref 0 in
  let peripheral root =
    let count, first, depth = bfs !round root in
    incr round;
    let rec climb root depth ~count ~first rounds =
      if rounds = 0 then root
      else
        let cand = pick_last ~first ~count in
        let count', first', depth' = bfs !round cand in
        incr round;
        if depth' > depth then
          climb cand depth' ~count:count' ~first:first' (rounds - 1)
        else root
    in
    climb root depth ~count ~first peripheral_rounds
  in
  let tail = ref 0 in
  let component root =
    let head = ref !tail in
    placed.(root) <- true;
    order.(!tail) <- root;
    incr tail;
    while !head < !tail do
      let u = order.(!head) in
      incr head;
      for e = start.(u) to start.(u) + deg.(u) - 1 do
        let w = sorted.(e) in
        if not placed.(w) then begin
          placed.(w) <- true;
          order.(!tail) <- w;
          incr tail
        end
      done
    done
  in
  Array.iter
    (fun v -> if not placed.(v) then component (peripheral v))
    by_degree;
  let reversed = Array.init n (fun k -> order.(n - 1 - k)) in
  let keep_forward =
    match late with
    | None -> false
    | Some v ->
        let k = ref 0 in
        while order.(!k) <> v do
          incr k
        done;
        !k > n - 1 - !k
  in
  of_order n iter_edges (if keep_forward then order else reversed)

(* --- bordered band matrices ----------------------------------------------- *)

(* Columns [0, n-1) are banded; column [n-1] is dense ([last]).  Row
   [i] of [a] stores columns [i - kl, i + ku + kl] at offsets
   [0, w): the top [kl] diagonals are room for the fill that partial
   pivoting brings, as in LAPACK's [gbtrf].  The kernels index [a]
   directly (see [Lu]); every access stays inside the row's slice. *)
type t = {
  n : int;
  kl : int;
  ku : int;
  w : int; (* row stride, 2 kl + ku + 1 *)
  a : float array;
  last : float array;
}

let create ~n ~kl ~ku =
  if n <= 0 || kl < 0 || ku < 0 then invalid_arg "Band.create: bad shape";
  let w = (2 * kl) + ku + 1 in
  { n; kl; ku; w; a = Array.make (n * w) 0.0; last = Array.make n 0.0 }

let dim t = t.n

let index t i j =
  if i < 0 || i >= t.n || j < 0 || j >= t.n then
    invalid_arg "Band: index out of range";
  if j = t.n - 1 then -1
  else if j < i - t.kl || j > i + t.ku then
    invalid_arg (Printf.sprintf "Band: (%d, %d) lies outside the band" i j)
  else (i * t.w) + (j - i + t.kl)

let get t i j =
  match index t i j with -1 -> t.last.(i) | k -> t.a.(k)

let set t i j x =
  match index t i j with -1 -> t.last.(i) <- x | k -> t.a.(k) <- x

let add t i j x =
  match index t i j with
  | -1 -> t.last.(i) <- t.last.(i) +. x
  | k -> t.a.(k) <- t.a.(k) +. x

let copy t = { t with a = Array.copy t.a; last = Array.copy t.last }

(* [Matrix.max_abs]'s rule (a NaN wins), in loops with a plain
   comparison: a float ref captured by a closure, or fed through
   [Float.max], is boxed on every update. *)
let max_abs t =
  let m = ref 0.0 in
  for k = 0 to Array.length t.a - 1 do
    let x = Float.abs (Array.unsafe_get t.a k) in
    if x > !m || Float.is_nan x then m := x
  done;
  for k = 0 to t.n - 1 do
    let x = Float.abs (Array.unsafe_get t.last k) in
    if x > !m || Float.is_nan x then m := x
  done;
  !m

let mul_vec t x =
  if Vec.dim x <> t.n then invalid_arg "Band.residual_norm: dimension mismatch";
  let n = t.n in
  Vec.init n (fun i ->
      let acc = ref 0.0 in
      for j = max 0 (i - t.kl) to min (n - 2) (i + t.ku) do
        acc := !acc +. (t.a.((i * t.w) + (j - i + t.kl)) *. x.(j))
      done;
      !acc +. (t.last.(i) *. x.(n - 1)))

let residual_norm t x b = Vec.norm_inf (Vec.sub (mul_vec t x) b)

let to_dense t =
  let m = Matrix.create t.n t.n in
  for i = 0 to t.n - 1 do
    for j = max 0 (i - t.kl) to min (t.n - 2) (i + t.ku) do
      Matrix.set m i j (get t i j)
    done;
    Matrix.set m i (t.n - 1) t.last.(i)
  done;
  m

(* --- banded LU ------------------------------------------------------------ *)

type factors = { f : t; ipiv : int array }

(* Partial pivoting inside the band, as [gbtrf]: step [k] looks at rows
   [k, k + kl], swaps the pivot row's columns [k, k + kl + ku] and its
   [last] entry, and keeps each multiplier where it was computed (the
   solve replays the swaps).  Per entry this is [Lu.decompose]'s
   arithmetic on the same matrix: the same pivot (first largest), the
   same threshold, the same skip of zero multipliers; the dense kernel
   only adds the products of structural zeros. *)
let decompose ?(pivot_tol = 1e-13) t =
  Dpm_obs.Probe.incr "lu.factorizations";
  let f = copy t in
  let { n; kl; ku; w; a; last } = f in
  let nb = n - 1 in
  let ipiv = Array.make n 0 in
  let threshold = pivot_tol *. Float.max 1.0 (max_abs t) in
  let at i j = (i * w) + (j - i + kl) in
  let singular k =
    Dpm_obs.Probe.incr "lu.singular";
    raise (Lu.Singular k)
  in
  for k = 0 to nb - 1 do
    let bottom = min (n - 1) (k + kl) and right = min (nb - 1) (k + kl + ku) in
    let pivot_row = ref k in
    let best = ref (Float.abs (Array.unsafe_get a (at k k))) in
    for i = k + 1 to bottom do
      let x = Float.abs (Array.unsafe_get a (at i k)) in
      if x > !best then begin
        pivot_row := i;
        best := x
      end
    done;
    let p = !pivot_row in
    ipiv.(k) <- p;
    if p <> k then begin
      let rk = at k 0 and rp = at p 0 in
      for j = k to right do
        let x = Array.unsafe_get a (rk + j) in
        Array.unsafe_set a (rk + j) (Array.unsafe_get a (rp + j));
        Array.unsafe_set a (rp + j) x
      done;
      let x = last.(k) in
      last.(k) <- last.(p);
      last.(p) <- x
    end;
    let rk = at k 0 in
    let pivot = Array.unsafe_get a (rk + k) in
    if Float.abs pivot < threshold then singular k;
    let tk = last.(k) in
    for i = k + 1 to bottom do
      let ri = at i 0 in
      let factor = Array.unsafe_get a (ri + k) /. pivot in
      Array.unsafe_set a (ri + k) factor;
      if factor <> 0.0 then begin
        for j = k + 1 to right do
          Array.unsafe_set a (ri + j)
            (Array.unsafe_get a (ri + j)
            -. (factor *. Array.unsafe_get a (rk + j)))
        done;
        last.(i) <- last.(i) -. (factor *. tk)
      end
    done
  done;
  ipiv.(nb) <- nb;
  if Float.abs last.(nb) < threshold then singular nb;
  { f; ipiv }

(* Forward substitution replays the swaps column by column; each entry
   still receives its multipliers' products in increasing column order,
   which is the dense kernel's row-wise order.  Back substitution
   subtracts the dense column last, as the dense kernel does. *)
let solve_factored { f = { n; kl; ku; w; a; last }; ipiv } b =
  if Vec.dim b <> n then invalid_arg "Band.solve_factored: dimension mismatch";
  Dpm_obs.Probe.incr "lu.solves";
  let nb = n - 1 in
  let y = Vec.copy b in
  for k = 0 to nb - 1 do
    let p = ipiv.(k) in
    if p <> k then begin
      let x = y.(k) in
      y.(k) <- y.(p);
      y.(p) <- x
    end;
    let yk = y.(k) in
    for i = k + 1 to min (n - 1) (k + kl) do
      Array.unsafe_set y i
        (Array.unsafe_get y i
        -. (Array.unsafe_get a ((i * w) + (k - i + kl)) *. yk))
    done
  done;
  let y_last = y.(nb) /. last.(nb) in
  y.(nb) <- y_last;
  for i = nb - 1 downto 0 do
    let ri = (i * w) - i + kl in
    let yi = ref (Array.unsafe_get y i) in
    for j = i + 1 to min (nb - 1) (i + kl + ku) do
      yi := !yi -. (Array.unsafe_get a (ri + j) *. Array.unsafe_get y j)
    done;
    yi := !yi -. (last.(i) *. y_last);
    Array.unsafe_set y i (!yi /. Array.unsafe_get a (ri + i))
  done;
  y

let solve ?pivot_tol t b = solve_factored (decompose ?pivot_tol t) b
