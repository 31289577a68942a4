type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = mix64 seed }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t = create (bits64 t)

let int t bound =
  assert (bound > 0);
  (* Shift by 2 so the value fits OCaml's 63-bit int (stays >= 0). *)
  let raw = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  raw mod bound

let int_in t lo hi =
  assert (hi >= lo);
  lo + int t (hi - lo + 1)

(* Uniform in [0,1) using the top 53 bits. *)
let unit_float t =
  let raw = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  raw /. 9007199254740992.0

let float t bound = unit_float t *. bound
let bernoulli t p = unit_float t < p

let exponential t mean =
  let u = unit_float t in
  -.mean *. log (1.0 -. u)

let normal t ~mu ~sigma =
  let u1 = 1.0 -. unit_float t in
  let u2 = unit_float t in
  mu +. (sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

let lognormal t ~mu ~sigma = exp (normal t ~mu ~sigma)

let binomial t ~n ~p =
  assert (n >= 0);
  if n = 0 || p <= 0.0 then 0
  else if p >= 1.0 then n
  else if n <= 64 then begin
    (* Exact: n Bernoulli draws. *)
    let k = ref 0 in
    for _ = 1 to n do
      if bernoulli t p then incr k
    done;
    !k
  end
  else begin
    (* Normal approximation, adequate for cohort-scale n; one draw
       instead of n keeps million-member aggregates O(1). *)
    let mu = float_of_int n *. p in
    let sigma = sqrt (float_of_int n *. p *. (1.0 -. p)) in
    let k = int_of_float (Float.round (normal t ~mu ~sigma)) in
    Stdlib.max 0 (Stdlib.min n k)
  end

let choice t arr =
  assert (Array.length arr > 0);
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let hash_to_unit key =
  let digest = Digest.string key in
  (* Take 6 bytes (48 bits) of the MD5 digest for a uniform float. *)
  let acc = ref 0 in
  for i = 0 to 5 do
    acc := (!acc * 256) + Char.code digest.[i]
  done;
  float_of_int !acc /. 281474976710656.0

module Zipf = struct
  type dist = { cdf : float array }

  let make ~n ~s =
    assert (n > 0);
    let weights = Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** s)) in
    let total = Array.fold_left ( +. ) 0.0 weights in
    let cdf = Array.make n 0.0 in
    let acc = ref 0.0 in
    Array.iteri
      (fun i w ->
        acc := !acc +. (w /. total);
        cdf.(i) <- !acc)
      weights;
    cdf.(n - 1) <- 1.0;
    { cdf }

  let draw t { cdf } =
    let u = unit_float t in
    (* Smallest index whose cumulative mass covers u. *)
    let rec search lo hi =
      if lo >= hi then lo + 1
      else
        let mid = (lo + hi) / 2 in
        if cdf.(mid) < u then search (mid + 1) hi else search lo mid
    in
    search 0 (Array.length cdf - 1)
end
