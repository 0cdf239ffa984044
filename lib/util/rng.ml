type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let mix64 k = mix (Int64.add k golden_gamma)

let next64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t =
  let s = next64 t in
  { state = s }

let copy t = { state = t.state }

let assign ~into src = into.state <- src.state

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Mask to 62 bits to stay non-negative as an OCaml int. *)
  let v = Int64.to_int (Int64.shift_right_logical (next64 t) 2) in
  v mod bound

let float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (next64 t) 11) in
  (* 53 significant bits, as in the reference implementation. *)
  v /. 9007199254740992.0 *. bound

let bool t = Int64.logand (next64 t) 1L = 1L

let chance t p = float t 1.0 < p
