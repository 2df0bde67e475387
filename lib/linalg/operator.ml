(* Lazy linear operators.  The representation is the expression tree
   itself; [to_dense] works off [iter_row], which may emit the same
   column more than once (Kron_sum diagonals, overlapping sums) and
   accumulates. *)

type t =
  | Dense of Matrix.t
  | Csr of Sparse.t
  | Diag of float array
  | Kron_prod of t * t
  | Kron_sum of t * t
  | Sum of t * t
  | Blocks of {
      row_off : int array; (* cumulative, length #block-rows + 1 *)
      col_off : int array;
      cells : t option array array;
    }

let rec rows = function
  | Dense m -> Matrix.rows m
  | Csr s -> Sparse.rows s
  | Diag d -> Array.length d
  | Kron_prod (a, b) | Kron_sum (a, b) -> rows a * rows b
  | Sum (a, _) -> rows a
  | Blocks { row_off; _ } -> row_off.(Array.length row_off - 1)

let rec cols = function
  | Dense m -> Matrix.cols m
  | Csr s -> Sparse.cols s
  | Diag d -> Array.length d
  | Kron_prod (a, b) | Kron_sum (a, b) -> cols a * cols b
  | Sum (a, _) -> cols a
  | Blocks { col_off; _ } -> col_off.(Array.length col_off - 1)

(* --- constructors --------------------------------------------------- *)

let dense m = Dense m
let csr s = Csr s
let diag d = Diag d
let identity n = Diag (Array.make n 1.0)

let kron_prod a b = Kron_prod (a, b)

let require_square name op =
  if rows op <> cols op then
    invalid_arg (Printf.sprintf "Operator.%s: operator is not square" name)

let kron_sum a b =
  require_square "kron_sum" a;
  require_square "kron_sum" b;
  Kron_sum (a, b)

let sum a b =
  if rows a <> rows b || cols a <> cols b then
    invalid_arg
      (Printf.sprintf "Operator.sum: shape mismatch (%dx%d vs %dx%d)" (rows a)
         (cols a) (rows b) (cols b));
  Sum (a, b)

let offsets_of dims =
  let off = Array.make (Array.length dims + 1) 0 in
  Array.iteri
    (fun k d ->
      if d < 0 then invalid_arg "Operator.blocks: negative block dimension";
      off.(k + 1) <- off.(k) + d)
    dims;
  off

let blocks ~row_dims ~col_dims cells =
  if Array.length cells <> Array.length row_dims then
    invalid_arg "Operator.blocks: cell grid height mismatch";
  Array.iteri
    (fun bi row ->
      if Array.length row <> Array.length col_dims then
        invalid_arg "Operator.blocks: ragged cell grid";
      Array.iteri
        (fun bj cell ->
          match cell with
          | None -> ()
          | Some op ->
              if rows op <> row_dims.(bi) || cols op <> col_dims.(bj) then
                invalid_arg
                  (Printf.sprintf
                     "Operator.blocks: cell (%d,%d) is %dx%d, expected %dx%d"
                     bi bj (rows op) (cols op) row_dims.(bi) col_dims.(bj)))
        row)
    cells;
  Blocks { row_off = offsets_of row_dims; col_off = offsets_of col_dims; cells }

(* --- row access ----------------------------------------------------- *)

let rec iter_row op i f =
  match op with
  | Dense m ->
      for j = 0 to Matrix.cols m - 1 do
        let x = Matrix.get m i j in
        if x <> 0.0 then f j x
      done
  | Csr s -> Sparse.iter_row s i f
  | Diag d ->
      let x = d.(i) in
      if x <> 0.0 then f i x
  | Kron_prod (a, b) ->
      let rb = rows b and cb = cols b in
      let ia = i / rb and ib = i mod rb in
      iter_row a ia (fun ja xa ->
          let base = ja * cb in
          iter_row b ib (fun jb xb -> f (base + jb) (xa *. xb)))
  | Kron_sum (a, b) ->
      let nb = rows b in
      let ia = i / nb and ib = i mod nb in
      iter_row a ia (fun ja xa -> f ((ja * nb) + ib) xa);
      let base = ia * nb in
      iter_row b ib (fun jb xb -> f (base + jb) xb)
  | Sum (a, b) ->
      iter_row a i f;
      iter_row b i f
  | Blocks { row_off; col_off; cells } ->
      let bi = ref 0 in
      while row_off.(!bi + 1) <= i do
        incr bi
      done;
      let li = i - row_off.(!bi) in
      Array.iteri
        (fun bj cell ->
          match cell with
          | None -> ()
          | Some op' ->
              let c0 = col_off.(bj) in
              iter_row op' li (fun j x -> f (c0 + j) x))
        cells.(!bi)

(* --- materialization and cost accounting ---------------------------- *)

let to_dense op =
  let m = Matrix.create (rows op) (cols op) in
  for i = 0 to rows op - 1 do
    iter_row op i (fun j x -> Matrix.update m i j (fun y -> y +. x))
  done;
  m

(* Sum of [f] over the present cells of a block grid. *)
let sum_cells f cells =
  Array.fold_left
    (Array.fold_left (fun acc cell ->
         match cell with None -> acc | Some op -> acc + f op))
    0 cells

let rec stored_floats = function
  | Dense m -> Matrix.rows m * Matrix.cols m
  | Csr s -> Sparse.nnz s
  | Diag d -> Array.length d
  | Kron_prod (a, b) | Kron_sum (a, b) | Sum (a, b) ->
      stored_floats a + stored_floats b
  | Blocks { cells; _ } -> sum_cells stored_floats cells

let count_dense_nnz m =
  let n = ref 0 in
  for i = 0 to Matrix.rows m - 1 do
    for j = 0 to Matrix.cols m - 1 do
      if Matrix.get m i j <> 0.0 then incr n
    done
  done;
  !n

let rec materialized_nnz = function
  | Dense m -> count_dense_nnz m
  | Csr s -> Sparse.nnz s
  | Diag d -> Array.fold_left (fun acc x -> if x <> 0.0 then acc + 1 else acc) 0 d
  | Kron_prod (a, b) -> materialized_nnz a * materialized_nnz b
  | Kron_sum (a, b) ->
      (materialized_nnz a * rows b) + (rows a * materialized_nnz b)
  | Sum (a, b) -> materialized_nnz a + materialized_nnz b
  | Blocks { cells; _ } -> sum_cells materialized_nnz cells
