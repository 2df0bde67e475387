open Dpm_prob

let t = Alcotest.test_case

let deterministic_across_instances () =
  let a = Rng.create 7L and b = Rng.create 7L in
  for i = 1 to 100 do
    Alcotest.(check int64)
      (Printf.sprintf "draw %d equal" i)
      (Rng.next_uint64 a) (Rng.next_uint64 b)
  done

let different_seeds_differ () =
  let a = Rng.create 1L and b = Rng.create 2L in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.next_uint64 a = Rng.next_uint64 b then incr same
  done;
  Alcotest.(check int) "streams differ" 0 !same

let copy_preserves_state () =
  let a = Rng.create 99L in
  ignore (Rng.next_uint64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.next_uint64 a)
    (Rng.next_uint64 b)

let split_is_independent () =
  let a = Rng.create 5L in
  let b = Rng.split a in
  (* The split stream must differ from the parent's continuation. *)
  let matches = ref 0 in
  for _ = 1 to 64 do
    if Rng.next_uint64 a = Rng.next_uint64 b then incr matches
  done;
  Alcotest.(check int) "no collisions" 0 !matches

let float_in_unit_interval () =
  let r = Rng.create 3L in
  for _ = 1 to 10_000 do
    let x = Rng.float r in
    if x < 0.0 || x >= 1.0 then Alcotest.failf "float out of [0,1): %g" x
  done

let float_positive_never_zero () =
  let r = Rng.create 3L in
  for _ = 1 to 10_000 do
    let x = Rng.float_positive r in
    if x <= 0.0 || x > 1.0 then Alcotest.failf "float_positive out of (0,1]: %g" x
  done

let float_mean_near_half () =
  let r = Rng.create 11L in
  let acc = ref 0.0 in
  let n = 100_000 in
  for _ = 1 to n do
    acc := !acc +. Rng.float r
  done;
  Test_util.check_relative ~rel:0.02 "uniform mean" 0.5 (!acc /. float_of_int n)

let int_bounds_and_uniformity () =
  let r = Rng.create 13L in
  let counts = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let k = Rng.int r 10 in
    if k < 0 || k >= 10 then Alcotest.failf "int out of range: %d" k;
    counts.(k) <- counts.(k) + 1
  done;
  Array.iteri
    (fun k c ->
      Test_util.check_relative ~rel:0.05
        (Printf.sprintf "bucket %d near uniform" k)
        (float_of_int n /. 10.0)
        (float_of_int c))
    counts;
  Test_util.check_raises_invalid "nonpositive bound" (fun () ->
      ignore (Rng.int r 0))

let bool_balanced () =
  let r = Rng.create 17L in
  let trues = ref 0 in
  let n = 100_000 in
  for _ = 1 to n do
    if Rng.bool r then incr trues
  done;
  Test_util.check_relative ~rel:0.03 "coin balance" 0.5
    (float_of_int !trues /. float_of_int n)

let zero_seed_works () =
  let r = Rng.create 0L in
  let x = Rng.next_uint64 r and y = Rng.next_uint64 r in
  Alcotest.(check bool) "state evolves from zero seed" true (x <> y)

(* Pinned outputs of the xoshiro256++ stream, recorded from the
   reference implementation.  The relative checks above would pass a
   wrong but deterministic stream; these would not. *)
let stream_pins =
  [
    ( 0L,
      [ 0x53175d61490b23dfL; 0x61da6f3dc380d507L; 0x5c0fdf91ec9a7bfcL;
        0x2eebf8c3bbe5e1aL; 0x7eca04ebaf4a5eeaL; 0x543c37757f08d9aL;
        0xdb7490c75ab5026eL; 0xd87343e6464bc959L ] );
    ( 1L,
      [ 0xcfc5d07f6f03c29bL; 0xbf424132963fe08dL; 0x19a37d5757aaf520L;
        0xbf08119f05cd56d6L; 0x2f47184b86186fa4L; 0x97299fcae7202345L;
        0xfca3c79508f41507L; 0x85fea5c90363f221L ] );
    ( 7L,
      [ 0xe2c1a002aae913dL; 0x2c0fc8ddfa4e9e14L; 0xb7b311b3b0d45872L;
        0x6d5d9f6a6318013cL; 0xf6b263f2f5790376L; 0x77385b627c22c489L;
        0xb951f9b3621ea380L; 0x54705b5adc01e528L ] );
    ( -1L,
      [ 0x56ccf8ce948e27b2L; 0xe68588432e5a5b90L; 0xe3e9b5a48119ca8bL;
        0x460f19495532ae73L; 0xa7d62040ea9263e1L; 0x66f1fb2ac9402c14L;
        0xe243b47de8a73f68L; 0x7c93fdab4c7b3dffL ] );
  ]

let pinned_stream () =
  List.iter
    (fun (seed, expected) ->
      let r = Rng.create seed in
      List.iteri
        (fun i e ->
          Alcotest.(check int64)
            (Printf.sprintf "seed %Ld draw %d" seed i)
            e (Rng.next_uint64 r))
        expected)
    stream_pins

let pinned_split_and_copy () =
  let parent = Rng.create 5L in
  let child = Rng.split parent in
  Alcotest.(check int64) "split child draw 0" 0x936dba24c4aeb81eL
    (Rng.next_uint64 child);
  Alcotest.(check int64) "split child draw 1" 0x6670af34c6b5d121L
    (Rng.next_uint64 child);
  Alcotest.(check int64) "parent after split" 0x9c874b1ef6a1c5e6L
    (Rng.next_uint64 parent);
  let a = Rng.create 99L in
  ignore (Rng.next_uint64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy" 0xccc4218daa89f206L (Rng.next_uint64 b);
  Alcotest.(check int64) "original after copy" 0xccc4218daa89f206L
    (Rng.next_uint64 a);
  Alcotest.(check (list int64))
    "seed_stream"
    [ 0x1d0b14e4db018fedL; 0xb3466f8a7b81a989L; 0x9cebe8a6d050dd01L ]
    (Rng.seed_stream ~base:3L 3)

let pinned_derived_draws () =
  let r = Rng.create 42L in
  let floats f = List.init 4 (fun _ -> Int64.bits_of_float (f r)) in
  Alcotest.(check (list int64))
    "float bits"
    [ 0x3fea0ec9a9e88ecdL; 0x3fd467905d15dbccL; 0x3fef7c0f9f61849dL;
      0x3fe66fb3ec019b06L ]
    (floats Rng.float);
  Alcotest.(check (list int64))
    "float_positive bits"
    [ 0x3fca6e71e3c5bdccL; 0x3fda5c983fec6bcaL; 0x3febfd1ce01bbcbaL;
      0x3fd945ac7e3c49ceL ]
    (floats Rng.float_positive);
  Alcotest.(check (list int))
    "int r 10"
    [ 5; 0; 6; 1; 8; 9; 9; 8; 6; 2; 0; 1 ]
    (List.init 12 (fun _ -> Rng.int r 10));
  Alcotest.(check (list bool))
    "bool"
    [ false; true; true; false; true; false; false; true; true; true; true;
      false ]
    (List.init 12 (fun _ -> Rng.bool r))

let words_per_call n f =
  let before = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int n

(* The simulator draws several floats per event: a draw may box its
   result (2 words) but nothing else. *)
let float_draw_allocation () =
  let r = Rng.create 11L in
  let w =
    words_per_call 100_000 (fun () -> ignore (Sys.opaque_identity (Rng.float r)))
  in
  if w > 3.0 then Alcotest.failf "Rng.float allocates %.2f words per call" w

(* Welford accumulators live as long as a run; boxing their fields
   would put every sample behind the write barrier. *)
let welford_add_allocation () =
  let acc = Stat.Welford.create () in
  let x = Sys.opaque_identity 2.5 in
  let w = words_per_call 100_000 (fun () -> Stat.Welford.add acc x) in
  if w >= 0.001 then
    Alcotest.failf "Welford.add allocates %.4f words per call" w

let suite =
  [
    t "deterministic" `Quick deterministic_across_instances;
    t "seeds differ" `Quick different_seeds_differ;
    t "copy" `Quick copy_preserves_state;
    t "split independence" `Quick split_is_independent;
    t "float range" `Quick float_in_unit_interval;
    t "float_positive range" `Quick float_positive_never_zero;
    t "float mean" `Slow float_mean_near_half;
    t "int uniformity" `Slow int_bounds_and_uniformity;
    t "bool balance" `Slow bool_balanced;
    t "zero seed" `Quick zero_seed_works;
    t "pinned stream" `Quick pinned_stream;
    t "pinned split and copy" `Quick pinned_split_and_copy;
    t "pinned derived draws" `Quick pinned_derived_draws;
    t "float draw allocation" `Quick float_draw_allocation;
    t "welford add allocation" `Quick welford_add_allocation;
  ]
