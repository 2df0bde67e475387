open Dpm_linalg

exception Invalid of string

type backing = Dense of Matrix.t | Csr of Sparse.t

type t = { n : int; backing : backing }

let invalid fmt = Format.kasprintf (fun s -> raise (Invalid s)) fmt

let of_rates ~dim rates =
  if dim <= 0 then invalid "of_rates: dimension must be positive (got %d)" dim;
  List.iter
    (fun (i, j, r) ->
      if i < 0 || i >= dim || j < 0 || j >= dim then
        invalid "of_rates: rate (%d,%d) out of range for %d states" i j dim;
      if i = j then invalid "of_rates: self-rate at state %d (diagonal is implied)" i;
      if r < 0.0 || not (Float.is_finite r) then
        invalid "of_rates: rate (%d,%d) is %g, must be finite and >= 0" i j r)
    rates;
  (* One CSR build; the diagonal is minus the merged row sums, taken in
     column order as a dense row would sum them. *)
  let off = Sparse.of_triplets ~rows:dim ~cols:dim rates in
  let sums = Sparse.row_sums off in
  { n = dim; backing = Csr (Sparse.with_diagonal off (fun i -> -.sums.(i))) }

type report = code:string -> site:string -> string -> unit

let fail (report : report) ~code ~site fmt =
  Printf.ksprintf (report ~code ~site) fmt

let row_site i = Printf.sprintf "row %d" i

let check ?(tol = 1e-9) m ~error ~warning =
  let n = Matrix.rows m in
  if Matrix.cols m <> n then
    fail error ~code:"not-square" ~site:"matrix" "%dx%d" n (Matrix.cols m)
  else if n = 0 then fail error ~code:"empty-matrix" ~site:"matrix" "0x0"
  else
    for i = 0 to n - 1 do
      let sum = ref 0.0 and scale = ref 0.0 and finite = ref true in
      for j = 0 to n - 1 do
        let x = Matrix.get m i j in
        if not (Float.is_finite x) then begin
          finite := false;
          fail error ~code:"non-finite-entry" ~site:(row_site i)
            "entry (%d,%d) is %g" i j x
        end
        else begin
          if j <> i && x < 0.0 then
            fail error ~code:"negative-rate" ~site:(row_site i)
              "entry (%d,%d) is %g" i j x;
          sum := !sum +. x;
          scale := Float.max !scale (Float.abs x)
        end
      done;
      if !finite then
        if !scale = 0.0 then
          warning ~code:"absorbing-state" ~site:(row_site i) "row is all zero"
        else if Float.abs !sum > tol then
          fail error ~code:"row-sum" ~site:(row_site i)
            "row sums to %g (scale %g)" !sum !scale
    done

let of_matrix ?tol m =
  check ?tol m
    ~error:(fun ~code ~site msg -> invalid "of_matrix: %s at %s: %s" code site msg)
    ~warning:(fun ~code:_ ~site:_ _ -> ());
  let n = Matrix.rows m in
  (* Recompute the diagonal so row sums are exactly zero. *)
  let fixed = Matrix.copy m in
  for i = 0 to n - 1 do
    let out = ref 0.0 in
    for j = 0 to n - 1 do
      if j <> i then out := !out +. Matrix.get fixed i j
    done;
    Matrix.set fixed i i (-. !out)
  done;
  { n; backing = Dense fixed }

let dim g = g.n

let get g i j =
  match g.backing with Dense m -> Matrix.get m i j | Csr s -> Sparse.get s i j

let exit_rate g i = -.get g i i

let iter_off_diagonal g f =
  match g.backing with
  | Dense m ->
      for i = 0 to g.n - 1 do
        Matrix.iter_row (fun j x -> if i <> j && x > 0.0 then f i j x) m i
      done
  | Csr s -> Sparse.iter s (fun i j x -> if i <> j && x > 0.0 then f i j x)

let iter_row g i f =
  match g.backing with
  | Dense m -> Matrix.iter_row (fun j x -> if j <> i && x > 0.0 then f j x) m i
  | Csr s -> Sparse.iter_row s i (fun j x -> if j <> i && x > 0.0 then f j x)

let to_matrix g =
  match g.backing with Dense m -> Matrix.copy m | Csr s -> Sparse.to_dense s

let to_sparse g =
  match g.backing with Dense m -> Sparse.of_dense m | Csr s -> s

let is_dense_backed g = match g.backing with Dense _ -> true | Csr _ -> false

let uniformization_rate g =
  let rate = ref 0.0 in
  for i = 0 to g.n - 1 do
    rate := Float.max !rate (exit_rate g i)
  done;
  !rate

let effective_rate g = function
  | Some r ->
      if r < uniformization_rate g then
        invalid_arg "Generator.uniformized: rate below the maximum exit rate";
      r
  | None ->
      let u = uniformization_rate g in
      if u = 0.0 then 1.0 else 1.02 *. u

let uniformized ?rate g =
  let lam = effective_rate g rate in
  let m = to_matrix g in
  Matrix.mapi (fun i j x -> (if i = j then 1.0 else 0.0) +. (x /. lam)) m

let uniformized_sparse ?rate g =
  let lam = effective_rate g rate in
  let ts = ref [] in
  let diag_extra = Array.make g.n 1.0 in
  iter_off_diagonal g (fun i j x -> ts := (i, j, x /. lam) :: !ts);
  for i = 0 to g.n - 1 do
    diag_extra.(i) <- 1.0 -. (exit_rate g i /. lam);
    ts := (i, i, diag_extra.(i)) :: !ts
  done;
  Sparse.of_triplets ~rows:g.n ~cols:g.n !ts

let embedded_dtmc g =
  Matrix.init g.n g.n (fun i j ->
      let out = exit_rate g i in
      if out = 0.0 then if i = j then 1.0 else 0.0
      else if i = j then 0.0
      else get g i j /. out)

let scale a g =
  if a <= 0.0 then invalid_arg "Generator.scale: factor must be positive";
  match g.backing with
  | Dense m -> { g with backing = Dense (Matrix.scale a m) }
  | Csr s -> { g with backing = Csr (Sparse.scale a s) }

let pp ppf g = Matrix.pp ppf (to_matrix g)
