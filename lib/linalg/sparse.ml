type t = {
  rows : int;
  cols : int;
  row_start : int array; (* length rows+1 *)
  col_index : int array; (* length nnz, sorted within each row *)
  values : float array; (* length nnz *)
}

type triplet = int * int * float

let rows s = s.rows

let of_triplets ~rows ~cols ts =
  if rows < 0 || cols < 0 then invalid_arg "Sparse.of_triplets: negative shape";
  (* Counting sort by row, which keeps the input order within a row. *)
  let row_start = Array.make (rows + 1) 0 in
  List.iter
    (fun (i, j, _) ->
      if i < 0 || i >= rows || j < 0 || j >= cols then
        invalid_arg
          (Printf.sprintf "Sparse.of_triplets: (%d,%d) out of shape %dx%d" i j
             rows cols);
      row_start.(i + 1) <- row_start.(i + 1) + 1)
    ts;
  for i = 1 to rows do
    row_start.(i) <- row_start.(i) + row_start.(i - 1)
  done;
  let len = row_start.(rows) in
  let col = Array.make len 0 and value = Array.make len 0.0 in
  let next = Array.sub row_start 0 rows in
  List.iter
    (fun (i, j, v) ->
      let k = next.(i) in
      col.(k) <- j;
      value.(k) <- v;
      next.(i) <- k + 1)
    ts;
  (* Per row: a stable insertion sort by column (rows are short), then
     duplicates summed in input order and exact zeros dropped, compacted
     in place.  [row_start.(i)] is read before it is overwritten. *)
  let w = ref 0 and lo = ref 0 in
  for i = 0 to rows - 1 do
    let hi = row_start.(i + 1) in
    for k = !lo + 1 to hi - 1 do
      let j = col.(k) and v = value.(k) in
      let p = ref (k - 1) in
      while !p >= !lo && col.(!p) > j do
        col.(!p + 1) <- col.(!p);
        value.(!p + 1) <- value.(!p);
        decr p
      done;
      col.(!p + 1) <- j;
      value.(!p + 1) <- v
    done;
    let k = ref !lo in
    while !k < hi do
      let j = col.(!k) and sum = ref value.(!k) in
      incr k;
      while !k < hi && col.(!k) = j do
        sum := !sum +. value.(!k);
        incr k
      done;
      if !sum <> 0.0 then begin
        col.(!w) <- j;
        value.(!w) <- !sum;
        incr w
      end
    done;
    lo := hi;
    row_start.(i + 1) <- !w
  done;
  let trim a = if !w = len then a else Array.sub a 0 !w in
  { rows; cols; row_start; col_index = trim col; values = trim value }

let with_diagonal s d =
  if s.rows <> s.cols then invalid_arg "Sparse.with_diagonal: not square";
  let n = s.rows in
  let row_start = Array.make (n + 1) 0 in
  let len = Array.length s.values + n in
  let col_index = Array.make len 0 and values = Array.make len 0.0 in
  let w = ref 0 in
  let put j x =
    col_index.(!w) <- j;
    values.(!w) <- x;
    incr w
  in
  for i = 0 to n - 1 do
    let k = ref s.row_start.(i) and hi = s.row_start.(i + 1) in
    while !k < hi && s.col_index.(!k) < i do
      put s.col_index.(!k) s.values.(!k);
      incr k
    done;
    let di = d i in
    if di <> 0.0 then put i di;
    if !k < hi && s.col_index.(!k) = i then incr k;
    while !k < hi do
      put s.col_index.(!k) s.values.(!k);
      incr k
    done;
    row_start.(i + 1) <- !w
  done;
  let trim a = if !w = len then a else Array.sub a 0 !w in
  {
    rows = n;
    cols = n;
    row_start;
    col_index = trim col_index;
    values = trim values;
  }

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

let scale a s =
  let ts = ref [] in
  iter s (fun i j x -> ts := (i, j, a *. x) :: !ts);
  of_triplets ~rows:s.rows ~cols:s.cols (List.rev !ts)

let vec_mul v s =
  if Vec.dim v <> s.rows then invalid_arg "Sparse.vec_mul: dimension mismatch";
  let out = Vec.create s.cols in
  for i = 0 to s.rows - 1 do
    let vi = v.(i) in
    if vi <> 0.0 then iter_row s i (fun j x -> out.(j) <- out.(j) +. (vi *. x))
  done;
  out

let row_sums s =
  Vec.init s.rows (fun i ->
      let acc = ref 0.0 in
      iter_row s i (fun _ x -> acc := !acc +. x);
      !acc)
