exception Cycling of int

type outcome =
  | Optimal of { x : Vec.t; objective : float; dual : Vec.t }
  | Infeasible
  | Unbounded

let check_feasible ?(tol = 1e-7) ~a ~b x =
  Vec.dim x = Matrix.cols a
  && Vec.dim b = Matrix.rows a
  && Array.for_all (fun v -> v >= -.tol) x
  && Vec.norm_inf (Vec.sub (Matrix.mul_vec a x) b) <= tol *. (1.0 +. Vec.norm_inf b)

(* Revised simplex: every iteration refactorizes the basis from the
   original column data, so no error accumulates across pivots — at
   the problem sizes this library needs (tens of rows) the O(m^3)
   per-iteration cost is irrelevant and the robustness is decisive on
   the highly degenerate occupation-measure LPs it exists for. *)

type phase_result = POptimal | PUnbounded

(* [columns.(j)] is column j of the extended constraint matrix;
   [basis.(i)] names the column basic in row i.  Runs the
   smallest-index entering rule to optimality for the given costs;
   [bland] switches the ratio-test tie-break from
   best-conditioned-pivot to smallest-basis-index, which together with
   the entering rule is textbook Bland and provably cycle-free. *)
let run_phase ~bland ~guard ~columns ~cost ~allowed ~b ~basis ~tol ~max_pivots =
  let m = Vec.dim b in
  let ncols = Array.length columns in
  let in_basis = Array.make ncols false in
  Array.iter (fun j -> in_basis.(j) <- true) basis;
  let pivots = ref 0 in
  let rec step () =
    guard ();
    if !pivots > max_pivots then begin
      Dpm_obs.Probe.incr "simplex.cycling";
      raise (Cycling !pivots)
    end;
    let bmat = Matrix.init m m (fun i k -> columns.(basis.(k)).(i)) in
    (* A looser LU pivot threshold: occupation-measure bases are badly
       scaled but genuinely nonsingular; partial pivoting still picks
       the best row. *)
    let lu = Lu.decompose ~pivot_tol:1e-18 bmat in
    let x_b = Lu.solve_factored lu b in
    (* Duals: B^T y = c_B, on the same factors. *)
    let y =
      Lu.solve_transposed_factored lu (Vec.init m (fun i -> cost.(basis.(i))))
    in
    (* Bland: the smallest-index improving non-basic column enters. *)
    let entering = ref (-1) in
    (try
       for j = 0 to ncols - 1 do
         if allowed j && not in_basis.(j) then begin
           let r = cost.(j) -. Vec.dot columns.(j) y in
           if r < -.tol then begin
             entering := j;
             raise Exit
           end
         end
       done
     with Exit -> ());
    if !entering < 0 then POptimal
    else begin
      let j = !entering in
      let d = Lu.solve_factored lu columns.(j) in
      (* Ratio test.  Ties (ubiquitous on the degenerate
         occupation-measure LPs) break toward the LARGEST pivot
         element: unlike textbook Bland this is not provably
         cycle-free, but it keeps every successive basis
         well-conditioned, and the pivot cap backstops the (never
         observed) cycling case. *)
      let leave = ref (-1) and best_ratio = ref infinity in
      (* Exact ratio test (every positive pivot is admissible — an
         exclusion threshold would let excluded basics go negative);
         ties break toward the largest pivot element for conditioning.
         Cycling is prevented by the deterministic perturbation of b
         in [minimize_core], which makes exact ratio ties
         vanishingly rare. *)
      for i = 0 to m - 1 do
        if d.(i) > tol then begin
          let ratio = Float.max 0.0 x_b.(i) /. d.(i) in
          let tie_break =
            !leave < 0
            || if bland then basis.(i) < basis.(!leave) else d.(i) > d.(!leave)
          in
          if
            ratio < !best_ratio -. 1e-12
            || (Float.abs (ratio -. !best_ratio) <= 1e-12 && tie_break)
          then begin
            leave := i;
            best_ratio := ratio
          end
        end
      done;
      if !leave < 0 then PUnbounded
      else begin
        in_basis.(basis.(!leave)) <- false;
        in_basis.(j) <- true;
        basis.(!leave) <- j;
        incr pivots;
        Dpm_obs.Probe.incr "simplex.pivots";
        Dpm_trace.Provenance.note_pivot ();
        step ()
      end
    end
  in
  step ()

(* A phase that blows its pivot budget with the conditioning-friendly
   tie-break is retried once under strict Bland (cycle-free in exact
   arithmetic) with a fresh budget; the basis reached so far is still
   feasible, so the retry resumes from it rather than starting over.
   A second blow-out is genuine numerical cycling: the typed
   [Cycling] escapes to the caller. *)
let run_phase_anticycling ~guard ~columns ~cost ~allowed ~b ~basis ~tol
    ~max_pivots =
  try
    run_phase ~bland:false ~guard ~columns ~cost ~allowed ~b ~basis ~tol
      ~max_pivots
  with Cycling _ ->
    Dpm_obs.Probe.incr "simplex.bland_retries";
    run_phase ~bland:true ~guard ~columns ~cost ~allowed ~b ~basis ~tol
      ~max_pivots

let minimize_core ?(max_pivots = 100_000) ?(tol = 1e-9) ~guard ~c ~a b =
  let m = Matrix.rows a and n = Matrix.cols a in
  if Vec.dim c <> n then invalid_arg "Simplex.minimize: cost dimension mismatch";
  if Vec.dim b <> m then invalid_arg "Simplex.minimize: rhs dimension mismatch";
  if m = 0 || n = 0 then invalid_arg "Simplex.minimize: empty program";
  (* Deterministic right-hand-side perturbation (classic degeneracy
     cure): distinct golden-ratio offsets make exact ratio-test ties
     — and hence cycling — practically impossible.  The final basic
     values are recomputed against the unperturbed b below. *)
  let b_exact = b in
  let b =
    Vec.init m (fun i ->
        let phi = Float.rem (float_of_int (i + 1) *. 0.618033988749895) 1.0 in
        b.(i) +. (1e-9 *. (0.5 +. phi)))
  in
  (* Extended columns: structural then artificial.  Artificial i has
     sign(b_i) at row i so the initial basic solution is |b| >= 0. *)
  let columns =
    Array.init (n + m) (fun j ->
        if j < n then Matrix.col a j
        else
          Vec.init m (fun i ->
              if i = j - n then if b.(i) < 0.0 then -1.0 else 1.0 else 0.0))
  in
  let basis = Array.init m (fun i -> n + i) in
  (* Phase 1: minimize the artificial mass. *)
  let phase1_cost = Array.init (n + m) (fun j -> if j >= n then 1.0 else 0.0) in
  (match
     run_phase_anticycling ~guard ~columns ~cost:phase1_cost
       ~allowed:(fun _ -> true)
       ~b ~basis ~tol ~max_pivots
   with
  | PUnbounded -> assert false (* phase 1 is bounded below by 0 *)
  | POptimal -> ());
  let factor_basis () =
    Lu.decompose (Matrix.init m m (fun i k -> columns.(basis.(k)).(i)))
  in
  let x_b = Lu.solve_factored (factor_basis ()) b in
  let artificial_mass = ref 0.0 in
  Array.iteri
    (fun k j -> if j >= n then artificial_mass := !artificial_mass +. Float.abs x_b.(k))
    basis;
  if !artificial_mass > 1e-7 *. (1.0 +. Vec.norm_inf b) then Infeasible
  else begin
    (* Drive zero-valued artificials out of the basis. *)
    for k = 0 to m - 1 do
      if basis.(k) >= n then begin
        let lu = factor_basis () in
        let found = ref false in
        let in_basis j = Array.exists (fun bj -> bj = j) basis in
        for j = 0 to n - 1 do
          if (not !found) && not (in_basis j) then begin
            let d = Lu.solve_factored lu columns.(j) in
            if Float.abs d.(k) > 1e-7 then begin
              basis.(k) <- j;
              found := true
            end
          end
        done;
        if not !found then
          invalid_arg
            "Simplex: redundant constraint row (drop dependent constraints \
             before calling)"
      end
    done;
    (* Phase 2 on the real costs; artificial columns are banned. *)
    let phase2_cost = Array.init (n + m) (fun j -> if j < n then c.(j) else 0.0) in
    match
      run_phase_anticycling ~guard ~columns ~cost:phase2_cost
        ~allowed:(fun j -> j < n)
        ~b ~basis ~tol ~max_pivots
    with
    | PUnbounded -> Unbounded
    | POptimal ->
        (* Evaluate the final basis against the exact rhs, undoing the
           anti-degeneracy perturbation. *)
        let lu = factor_basis () in
        let x_b = Lu.solve_factored lu b_exact in
        let x = Vec.create n in
        Array.iteri (fun k j -> if j < n then x.(j) <- Float.max 0.0 x_b.(k)) basis;
        let dual =
          Lu.solve_transposed_factored lu
            (Vec.init m (fun i -> phase2_cost.(basis.(i))))
        in
        Optimal { x; objective = Vec.dot c x; dual }
  end

(* Public entry: Ruiz equilibration (alternating row/column scaling)
   before the core solve.  Equality constraints make row scaling
   exact; the column scaling is the substitution x = D_c x'.  The
   solution, objective and duals are mapped back to the original
   problem, so callers never see the scaling. *)
let minimize ?max_pivots ?tol ?(guard = fun () -> ()) ~c ~a b =
  let m = Matrix.rows a and n = Matrix.cols a in
  if Vec.dim c <> n then invalid_arg "Simplex.minimize: cost dimension mismatch";
  if Vec.dim b <> m then invalid_arg "Simplex.minimize: rhs dimension mismatch";
  if m = 0 || n = 0 then invalid_arg "Simplex.minimize: empty program";
  let row_scale = Array.make m 1.0 and col_scale = Array.make n 1.0 in
  let scaled = Matrix.copy a in
  for _ = 1 to 4 do
    for r = 0 to m - 1 do
      let biggest = ref 0.0 in
      for v = 0 to n - 1 do
        biggest := Float.max !biggest (Float.abs (Matrix.get scaled r v))
      done;
      if !biggest > 0.0 then begin
        let f = sqrt !biggest in
        row_scale.(r) <- row_scale.(r) *. f;
        for v = 0 to n - 1 do
          Matrix.set scaled r v (Matrix.get scaled r v /. f)
        done
      end
    done;
    for v = 0 to n - 1 do
      let biggest = ref 0.0 in
      for r = 0 to m - 1 do
        biggest := Float.max !biggest (Float.abs (Matrix.get scaled r v))
      done;
      if !biggest > 0.0 then begin
        let f = sqrt !biggest in
        col_scale.(v) <- col_scale.(v) *. f;
        for r = 0 to m - 1 do
          Matrix.set scaled r v (Matrix.get scaled r v /. f)
        done
      end
    done
  done;
  let b' = Vec.init m (fun r -> b.(r) /. row_scale.(r)) in
  let c' = Vec.init n (fun v -> c.(v) /. col_scale.(v)) in
  match minimize_core ?max_pivots ?tol ~guard ~c:c' ~a:scaled b' with
  | Infeasible -> Infeasible
  | Unbounded -> Unbounded
  | Optimal { x = x'; objective = _; dual = y' } ->
      let x = Vec.init n (fun v -> x'.(v) /. col_scale.(v)) in
      let dual = Vec.init m (fun r -> y'.(r) /. row_scale.(r)) in
      Optimal { x; objective = Vec.dot c x; dual }
