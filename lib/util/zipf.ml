type t = {
  n : int;
  s : float;
  h_x1 : float;   (* hIntegral(1.5) - 1 *)
  h_n : float;    (* hIntegral(n + 0.5) *)
  s_const : float;
  norm : float;   (* generalized harmonic number, for pmf *)
}

(* hIntegral(x) = ((x)^(1-s) - 1) / (1-s), the integral of x^-s. *)
let h_integral s x = (Float.pow x (1.0 -. s) -. 1.0) /. (1.0 -. s)

let h_integral_inv s y =
  Float.pow (1.0 +. (y *. (1.0 -. s))) (1.0 /. (1.0 -. s))

let hat s x = Float.pow x (-.s)

let create ?(exponent = 0.99) n =
  if n <= 0 then invalid_arg "Zipf.create: n must be positive";
  if exponent <= 0.0 || exponent = 1.0 then
    invalid_arg "Zipf.create: exponent must be positive and not 1.0";
  let s = exponent in
  let norm =
    let acc = ref 0.0 in
    (* Exact normalizer is only needed by [pmf] (tests); O(n) once. *)
    for k = 1 to n do
      acc := !acc +. (1.0 /. Float.pow (float_of_int k) s)
    done;
    !acc
  in
  {
    n;
    s;
    h_x1 = h_integral s 1.5 -. 1.0;
    h_n = h_integral s (float_of_int n +. 0.5);
    s_const = 2.0 -. h_integral_inv s (h_integral s 2.5 -. hat s 2.0);
    norm;
  }

(* Rejection-inversion sampling (Hörmann & Derflinger 1996). *)
let sample t rng =
  let rec loop () =
    let u = t.h_n +. (Rng.float rng 1.0 *. (t.h_x1 -. t.h_n)) in
    let x = h_integral_inv t.s u in
    let k = Float.to_int (x +. 0.5) in
    let k = if k < 1 then 1 else if k > t.n then t.n else k in
    let fk = float_of_int k in
    if fk -. x <= t.s_const || u >= h_integral t.s (fk +. 0.5) -. hat t.s fk
    then k - 1
    else loop ()
  in
  loop ()

let pmf t k =
  if k < 0 || k >= t.n then 0.0
  else 1.0 /. (Float.pow (float_of_int (k + 1)) t.s *. t.norm)
