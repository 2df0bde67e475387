(* The four xoshiro256++ words live in one 32-byte buffer, read and
   written with the unboxed 64-bit primitives: a draw stores no fresh
   [Int64] box into a long-lived value, so it neither allocates nor
   pays the write barrier.  Word [i] sits at byte offset [8 * i]. *)
type t = Bytes.t

external get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* splitmix64: expands a single 64-bit seed into well-mixed state words. *)
let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let seed_stream ~base n =
  if n < 0 then invalid_arg "Rng.seed_stream: negative count";
  let state = ref base in
  List.init n (fun _ -> splitmix64 state)

let create seed =
  let state = ref seed in
  let r = Bytes.create 32 in
  for i = 0 to 3 do
    set r (8 * i) (splitmix64 state)
  done;
  r

let copy = Bytes.copy

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* xoshiro256++ *)
let[@inline] next_uint64 r =
  let open Int64 in
  let s0 = get r 0 and s1 = get r 8 and s2 = get r 16 and s3 = get r 24 in
  let result = add (rotl (add s0 s3) 23) s0 in
  let t = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  let s1 = logxor s1 s2 in
  let s0 = logxor s0 s3 in
  set r 0 s0;
  set r 8 s1;
  set r 16 (logxor s2 t);
  set r 24 (rotl s3 45);
  result

let split r = create (next_uint64 r)

let[@inline] float r =
  (* Use the top 53 bits for a uniform double in [0,1). *)
  let bits = Int64.shift_right_logical (next_uint64 r) 11 in
  Int64.to_float bits *. 0x1p-53

let float_positive r = 1.0 -. float r

let int r bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let b = Int64.of_int bound in
  let limit = Int64.mul (Int64.div Int64.max_int b) b in
  let x = ref (Int64.logand (next_uint64 r) Int64.max_int) in
  while !x >= limit do
    x := Int64.logand (next_uint64 r) Int64.max_int
  done;
  Int64.to_int (Int64.rem !x b)

let bool r = Int64.logand (next_uint64 r) 1L = 1L
