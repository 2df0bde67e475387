(* Shared helpers for the test suite. *)

let check_float ?(tol = 1e-9) msg expected actual =
  Alcotest.check (Alcotest.float tol) msg expected actual

let check_close ?(tol = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: expected %.12g, got %.12g (tol %g)" msg expected actual
      tol

(* Relative comparison for statistical quantities. *)
let check_relative ~rel msg expected actual =
  if expected = 0.0 then check_close ~tol:rel msg expected actual
  else if Float.abs ((actual -. expected) /. expected) > rel then
    Alcotest.failf "%s: expected %.6g, got %.6g (relative tol %g)" msg expected
      actual rel

let check_vec ?(tol = 1e-9) msg expected actual =
  if not (Dpm_linalg.Vec.approx_equal ~tol expected actual) then
    Alcotest.failf "%s: vectors differ:@ %a@ vs@ %a" msg Dpm_linalg.Vec.pp
      expected Dpm_linalg.Vec.pp actual

let contains_substring haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
  at 0

let check_raises_invalid msg f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" msg

let qtest ?(count = 200) ?print name gen prop =
  (* A fixed generator seed keeps property tests reproducible run to
     run; statistical properties (simulation vs model) would otherwise
     flake on whichever random system a fresh seed dreams up. *)
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 0x5eed; String.length name |])
    (QCheck2.Test.make ?print ~count ~name gen prop)

(* A reproducible RNG for tests that need raw randomness. *)
let rng () = Dpm_prob.Rng.create 20260705L

(* Provenance is timing metadata (wall clock, cache origin): two
   otherwise-identical solutions legitimately differ in it.  Tests
   that assert solver determinism compare solutions modulo
   provenance. *)
let neutral_provenance =
  {
    Dpm_trace.Provenance.fingerprint = 0L;
    method_ = "";
    eval_path = "";
    iterations = 0;
    residual = 0.0;
    origin = Dpm_trace.Provenance.Cold;
    robust_retries = 0;
    tikhonov_rungs = 0;
    sparse_fallbacks = 0;
    faults_injected = 0;
    deadline_s = None;
    wall_s = 0.0;
    weight = 0.0;
    arrival_rate = 0.0;
  }

let strip_provenance (sol : Dpm_core.Optimize.solution) =
  { sol with Dpm_core.Optimize.provenance = neutral_provenance }

(* The paper's system at a larger queue capacity.  It has 4Q + 3
   states, so Q >= 48 puts policy iteration on its iterative
   evaluation route (192 states and up). *)
let paper_at_capacity queue_capacity =
  Dpm_core.Sys_model.create
    ~sp:(Dpm_core.Paper_instance.service_provider ())
    ~queue_capacity ~arrival_rate:Dpm_core.Paper_instance.arrival_rate ()

(* Run [f] under a fresh metrics registry; return its result and the
   registry. *)
let with_registry f =
  let reg = Dpm_obs.Metrics.create () in
  let r = Dpm_obs.Probe.with_active reg f in
  (r, reg)

let counter reg name =
  match Dpm_obs.Metrics.find reg name with
  | Some (Dpm_obs.Metrics.Counter_value n) -> n
  | _ -> 0

(* The relative-value system of policy [p] in natural order, dense:
   unknown [j <> 0] is the bias of state [j], unknown 0 the gain (the
   reference state 0's bias is pinned to 0).  The assembly the dense
   kernels evaluated before band storage, kept as a reference. *)
let dense_pi_system m p =
  let open Dpm_ctmdp in
  let open Dpm_linalg in
  let n = Model.num_states m in
  let a = Matrix.create n n and b = Vec.create n in
  for i = 0 to n - 1 do
    let c = Model.choice m i (Policy.choice_index p i) in
    b.(i) <- -.c.Model.cost;
    if i <> 0 then
      Matrix.set a i i
        (-.List.fold_left (fun acc (_, r) -> acc +. r) 0.0 c.Model.rates);
    List.iter
      (fun (j, r) -> if j <> 0 then Matrix.update a i j (fun x -> x +. r))
      c.Model.rates;
    Matrix.set a i 0 (-1.0)
  done;
  (a, b)
