type t = { rows : int; cols : int; data : float array }

let create rows cols =
  if rows < 0 || cols < 0 then invalid_arg "Matrix.create: negative shape";
  { rows; cols; data = Array.make (rows * cols) 0.0 }

let init rows cols f =
  if rows < 0 || cols < 0 then invalid_arg "Matrix.init: negative shape";
  let data = Array.make (rows * cols) 0.0 in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      data.((i * cols) + j) <- f i j
    done
  done;
  { rows; cols; data }

let identity n = init n n (fun i j -> if i = j then 1.0 else 0.0)

let diag v =
  let n = Vec.dim v in
  init n n (fun i j -> if i = j then v.(i) else 0.0)

let of_arrays arr =
  let rows = Array.length arr in
  if rows = 0 then invalid_arg "Matrix.of_arrays: empty";
  let cols = Array.length arr.(0) in
  Array.iter
    (fun r ->
      if Array.length r <> cols then invalid_arg "Matrix.of_arrays: ragged rows")
    arr;
  init rows cols (fun i j -> arr.(i).(j))

let rows m = m.rows
let cols m = m.cols

let check_index m i j =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then
    invalid_arg
      (Printf.sprintf "Matrix: index (%d,%d) out of shape %dx%d" i j m.rows
         m.cols)

let get m i j =
  check_index m i j;
  m.data.((i * m.cols) + j)

let set m i j x =
  check_index m i j;
  m.data.((i * m.cols) + j) <- x

let update m i j f = set m i j (f (get m i j))

let to_arrays m =
  Array.init m.rows (fun i -> Array.init m.cols (fun j -> get m i j))

let copy m = { m with data = Array.copy m.data }

let set_block m ~row ~col b =
  if row < 0 || col < 0 || row + b.rows > m.rows || col + b.cols > m.cols then
    invalid_arg
      (Printf.sprintf "Matrix.set_block: %dx%d block at (%d,%d) outside %dx%d"
         b.rows b.cols row col m.rows m.cols);
  for i = 0 to b.rows - 1 do
    Array.blit b.data (i * b.cols) m.data (((row + i) * m.cols) + col) b.cols
  done

let to_row_major m = Array.copy m.data
let row m i = Array.init m.cols (fun j -> get m i j)
let col m j = Array.init m.rows (fun i -> get m i j)

let transpose m = init m.cols m.rows (fun i j -> get m j i)
let map f m = { m with data = Array.map f m.data }
let mapi f m = init m.rows m.cols (fun i j -> f i j (get m i j))

let check_same_shape name a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg
      (Printf.sprintf "Matrix.%s: shape mismatch (%dx%d vs %dx%d)" name a.rows
         a.cols b.rows b.cols)

let add a b =
  check_same_shape "add" a b;
  { a with data = Array.mapi (fun k x -> x +. b.data.(k)) a.data }

let sub a b =
  check_same_shape "sub" a b;
  { a with data = Array.mapi (fun k x -> x -. b.data.(k)) a.data }

let scale a m = map (fun x -> a *. x) m

let mul a b =
  if a.cols <> b.rows then
    invalid_arg
      (Printf.sprintf "Matrix.mul: shape mismatch (%dx%d * %dx%d)" a.rows
         a.cols b.rows b.cols);
  let c = create a.rows b.cols in
  for i = 0 to a.rows - 1 do
    for k = 0 to a.cols - 1 do
      let aik = a.data.((i * a.cols) + k) in
      if aik <> 0.0 then
        for j = 0 to b.cols - 1 do
          c.data.((i * c.cols) + j) <-
            c.data.((i * c.cols) + j) +. (aik *. b.data.((k * b.cols) + j))
        done
    done
  done;
  c

let kron_prod a b =
  let c = create (a.rows * b.rows) (a.cols * b.cols) in
  for i1 = 0 to a.rows - 1 do
    for j1 = 0 to a.cols - 1 do
      let x = a.data.((i1 * a.cols) + j1) in
      for i2 = 0 to b.rows - 1 do
        let row = ((i1 * b.rows) + i2) * c.cols in
        for j2 = 0 to b.cols - 1 do
          c.data.(row + (j1 * b.cols) + j2) <- x *. b.data.((i2 * b.cols) + j2)
        done
      done
    done
  done;
  c

(* A (x) I, then I (x) B added on top: the two terms overlap only on
   the diagonal. *)
let kron_sum a b =
  if a.rows <> a.cols || b.rows <> b.cols then
    invalid_arg "Matrix.kron_sum: factors must be square";
  let na = a.rows and nb = b.rows in
  let n = na * nb in
  let c = create n n in
  for ia = 0 to na - 1 do
    for ja = 0 to na - 1 do
      let x = a.data.((ia * na) + ja) in
      for k = 0 to nb - 1 do
        c.data.((((ia * nb) + k) * n) + (ja * nb) + k) <- x
      done
    done;
    for ib = 0 to nb - 1 do
      let row = ((ia * nb) + ib) * n in
      for jb = 0 to nb - 1 do
        let idx = row + (ia * nb) + jb in
        c.data.(idx) <- c.data.(idx) +. b.data.((ib * nb) + jb)
      done
    done
  done;
  c

let mul_vec m v =
  if Vec.dim v <> m.cols then invalid_arg "Matrix.mul_vec: dimension mismatch";
  Vec.init m.rows (fun i ->
      let acc = ref 0.0 in
      for j = 0 to m.cols - 1 do
        acc := !acc +. (m.data.((i * m.cols) + j) *. v.(j))
      done;
      !acc)

let vec_mul v m =
  if Vec.dim v <> m.rows then invalid_arg "Matrix.vec_mul: dimension mismatch";
  let out = Vec.create m.cols in
  for i = 0 to m.rows - 1 do
    let vi = v.(i) in
    if vi <> 0.0 then
      for j = 0 to m.cols - 1 do
        out.(j) <- out.(j) +. (vi *. m.data.((i * m.cols) + j))
      done
  done;
  out

let iter_row f m i =
  if i < 0 || i >= m.rows then invalid_arg "Matrix.iter_row: bad row";
  for j = 0 to m.cols - 1 do
    f j m.data.((i * m.cols) + j)
  done

let fold f acc m = Array.fold_left f acc m.data

let row_sums m =
  Vec.init m.rows (fun i ->
      let acc = ref 0.0 in
      for j = 0 to m.cols - 1 do
        acc := !acc +. m.data.((i * m.cols) + j)
      done;
      !acc)

(* The value of folding [Float.max] over [|x|] (NaN wins), without
   boxing an accumulator per entry. *)
let max_abs m =
  let acc = ref 0.0 in
  for k = 0 to Array.length m.data - 1 do
    let x = Float.abs m.data.(k) in
    if x > !acc || Float.is_nan x then acc := x
  done;
  !acc

let approx_equal ?(tol = 1e-9) a b =
  a.rows = b.rows && a.cols = b.cols
  &&
  let ok = ref true in
  Array.iteri
    (fun k x -> if Float.abs (x -. b.data.(k)) > tol then ok := false)
    a.data;
  !ok

let pp ppf m =
  Format.fprintf ppf "@[<v>";
  for i = 0 to m.rows - 1 do
    Format.fprintf ppf "[";
    for j = 0 to m.cols - 1 do
      if j > 0 then Format.fprintf ppf "  ";
      Format.fprintf ppf "%10g" (get m i j)
    done;
    Format.fprintf ppf "]";
    if i < m.rows - 1 then Format.fprintf ppf "@,"
  done;
  Format.fprintf ppf "@]"
