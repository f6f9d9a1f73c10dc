(** Deterministic pseudo-random number generator (splitmix64).

    Every source of nondeterminism in the simulator — scheduler choices,
    workload jitter, property-test shrinking seeds — goes through an
    explicit [Rng.t] so that a run is fully reproducible from its seed.
    We do not use [Stdlib.Random] because its state is global and its
    algorithm differs across OCaml releases. *)

(* The 64-bit state lives unboxed in an 8-byte buffer: a mutable
   [int64] field would box a fresh Int64 on every draw. *)
type t = Bytes.t

let state_of_int64 s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create ~seed = state_of_int64 (Int64.of_int seed)

let copy = Bytes.copy

(* splitmix64 step: a single 64-bit multiply-xorshift mix with a Weyl
   increment.  Passes BigCrush; more than adequate for scheduling.
   Inlined so that [next] does not box the result either. *)
let[@inline] next_int64 t =
  let open Int64 in
  let z = add (Bytes.get_int64_ne t 0) 0x9E3779B97F4A7C15L in
  Bytes.set_int64_ne t 0 z;
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* mask to 62 bits so the result is a non-negative OCaml int *)
let next t = Int64.to_int (next_int64 t) land max_int

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  next t mod bound

let int_in_range t ~lo ~hi =
  if hi < lo then invalid_arg "Rng.int_in_range: hi < lo";
  lo + int t (hi - lo + 1)

let bool t = Int64.logand (next_int64 t) 1L = 1L

(* [chance t ~num ~den] is true with probability num/den. *)
let chance t ~num ~den = int t den < num

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int t (Array.length arr))

let shuffle_in_place t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let split t =
  (* Derive an independent stream: mix the parent's next output into a
     fresh state.  Streams from distinct draws never collide in practice. *)
  state_of_int64 (Int64.logxor (next_int64 t) 0xD1B54A32D192ED03L)
