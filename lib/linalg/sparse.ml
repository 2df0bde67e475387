type t = {
  rows : int;
  cols : int;
  row_start : int array; (* length rows+1 *)
  col_index : int array; (* length nnz, sorted within each row *)
  values : float array; (* length nnz *)
}

type triplet = int * int * float

let rows s = s.rows
let cols s = s.cols
let nnz s = Array.length s.values

let of_triplets ~rows ~cols ts =
  if rows < 0 || cols < 0 then invalid_arg "Sparse.of_triplets: negative shape";
  List.iter
    (fun (i, j, _) ->
      if i < 0 || i >= rows || j < 0 || j >= cols then
        invalid_arg
          (Printf.sprintf "Sparse.of_triplets: (%d,%d) out of shape %dx%d" i j
             rows cols))
    ts;
  (* Sort by (row, col) then merge duplicates, dropping exact zeros. *)
  let arr = Array.of_list ts in
  Array.sort
    (fun (i1, j1, _) (i2, j2, _) -> if i1 <> i2 then compare i1 i2 else compare j1 j2)
    arr;
  let merged = ref [] and count = ref 0 in
  let flush (i, j, v) = if v <> 0.0 then begin merged := (i, j, v) :: !merged; incr count end in
  let pending = ref None in
  Array.iter
    (fun (i, j, v) ->
      match !pending with
      | None -> pending := Some (i, j, v)
      | Some (i', j', v') when i = i' && j = j' -> pending := Some (i, j, v +. v')
      | Some p ->
          flush p;
          pending := Some (i, j, v))
    arr;
  (match !pending with None -> () | Some p -> flush p);
  let entries = Array.of_list (List.rev !merged) in
  let n = Array.length entries in
  let row_start = Array.make (rows + 1) 0 in
  Array.iter (fun (i, _, _) -> row_start.(i + 1) <- row_start.(i + 1) + 1) entries;
  for i = 1 to rows do
    row_start.(i) <- row_start.(i) + row_start.(i - 1)
  done;
  let col_index = Array.make n 0 and values = Array.make n 0.0 in
  Array.iteri
    (fun k (_, j, v) ->
      col_index.(k) <- j;
      values.(k) <- v)
    entries;
  { rows; cols; row_start; col_index; values }

let of_dense m =
  let ts = ref [] in
  for i = Matrix.rows m - 1 downto 0 do
    for j = Matrix.cols m - 1 downto 0 do
      let x = Matrix.get m i j in
      if x <> 0.0 then ts := (i, j, x) :: !ts
    done
  done;
  of_triplets ~rows:(Matrix.rows m) ~cols:(Matrix.cols m) !ts

let to_dense s =
  let m = Matrix.create s.rows s.cols in
  for i = 0 to s.rows - 1 do
    for k = s.row_start.(i) to s.row_start.(i + 1) - 1 do
      Matrix.set m i s.col_index.(k) s.values.(k)
    done
  done;
  m

let get s i j =
  if i < 0 || i >= s.rows || j < 0 || j >= s.cols then
    invalid_arg "Sparse.get: index out of shape";
  let lo = ref s.row_start.(i) and hi = ref (s.row_start.(i + 1) - 1) in
  let found = ref 0.0 in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let c = s.col_index.(mid) in
    if c = j then begin
      found := s.values.(mid);
      lo := !hi + 1
    end
    else if c < j then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let iter_row s i f =
  if i < 0 || i >= s.rows then invalid_arg "Sparse.iter_row: bad row";
  for k = s.row_start.(i) to s.row_start.(i + 1) - 1 do
    f s.col_index.(k) s.values.(k)
  done

let iter s f =
  for i = 0 to s.rows - 1 do
    iter_row s i (fun j x -> f i j x)
  done

let triplets s =
  let acc = ref [] in
  iter s (fun i j x -> acc := (i, j, x) :: !acc);
  List.rev !acc

let map f s =
  of_triplets ~rows:s.rows ~cols:s.cols
    (List.map (fun (i, j, x) -> (i, j, f x)) (triplets s))

let scale a s = map (fun x -> a *. x) s

let add a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg "Sparse.add: shape mismatch";
  of_triplets ~rows:a.rows ~cols:a.cols (triplets a @ triplets b)

let transpose s =
  of_triplets ~rows:s.cols ~cols:s.rows
    (List.map (fun (i, j, x) -> (j, i, x)) (triplets s))

let mul_vec_into s v ~dst =
  if Vec.dim v <> s.cols then
    invalid_arg "Sparse.mul_vec_into: dimension mismatch";
  if Vec.dim dst <> s.rows then
    invalid_arg "Sparse.mul_vec_into: destination dimension mismatch";
  (* Hoisted accumulator: the sweep allocates nothing. *)
  let acc = ref 0.0 in
  for i = 0 to s.rows - 1 do
    acc := 0.0;
    for k = s.row_start.(i) to s.row_start.(i + 1) - 1 do
      acc := !acc +. (s.values.(k) *. v.(s.col_index.(k)))
    done;
    dst.(i) <- !acc
  done

let mul_vec s v =
  if Vec.dim v <> s.cols then invalid_arg "Sparse.mul_vec: dimension mismatch";
  let dst = Vec.create s.rows in
  mul_vec_into s v ~dst;
  dst

let vec_mul v s =
  if Vec.dim v <> s.rows then invalid_arg "Sparse.vec_mul: dimension mismatch";
  let out = Vec.create s.cols in
  for i = 0 to s.rows - 1 do
    let vi = v.(i) in
    if vi <> 0.0 then iter_row s i (fun j x -> out.(j) <- out.(j) +. (vi *. x))
  done;
  out

let mul a b =
  if a.cols <> b.rows then invalid_arg "Sparse.mul: shape mismatch";
  (* Row-by-row accumulation into a hash table keyed by column. *)
  let ts = ref [] in
  for i = 0 to a.rows - 1 do
    let acc = Hashtbl.create 16 in
    iter_row a i (fun k aik ->
        iter_row b k (fun j bkj ->
            let prev = Option.value (Hashtbl.find_opt acc j) ~default:0.0 in
            Hashtbl.replace acc j (prev +. (aik *. bkj))));
    Hashtbl.iter (fun j x -> ts := (i, j, x) :: !ts) acc
  done;
  of_triplets ~rows:a.rows ~cols:b.cols !ts

let row_sums s =
  Vec.init s.rows (fun i ->
      let acc = ref 0.0 in
      iter_row s i (fun _ x -> acc := !acc +. x);
      !acc)

let approx_equal ?(tol = 1e-9) a b =
  a.rows = b.rows && a.cols = b.cols
  && Matrix.approx_equal ~tol (to_dense a) (to_dense b)

let pp ppf s =
  Format.fprintf ppf "@[<hov>%dx%d nnz=%d:@ " s.rows s.cols (nnz s);
  iter s (fun i j x -> Format.fprintf ppf "(%d,%d)=%g;@ " i j x);
  Format.fprintf ppf "@]"
