module Obs = Ido_obs.Obs

(* 2^16 buckets: small enough that the seen-set saturates on genuinely
   similar behaviour, large enough that distinct persist shapes rarely
   collide.  All hashing is pure integer arithmetic — no [Hashtbl.hash]
   — so buckets are stable across OCaml versions and processes. *)
let bucket_mask = 0xFFFF

let mix h x = (((h lsl 5) + h) lxor x) land 0x3FFFFFFF

let strseed s =
  let h = ref 0x811c9dc5 in
  String.iter
    (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0x3FFFFFFF)
    s;
  !h

(* Feature classes are salted so an n-gram bucket can never collide
   with a boundary-edge bucket by construction of the fold order. *)
let ngram_salt = 0x1A
let boundary_salt = 0x2B
let fase_salt = 0x3C
let diag_salt = 0x4D
let shape_salt = 0x5E

(* ---------- bucket sets ----------

   One bit per bucket of the 2^16 space, plus a population count; read
   back in ascending bucket order, so a feature array comes out sorted
   and deduplicated without a sort. *)

type bits = { set : Bytes.t; mutable card : int }

let bits () = { set = Bytes.make ((bucket_mask + 1) / 8) '\000'; card = 0 }

let mem b k =
  let k = k land bucket_mask in
  Char.code (Bytes.get b.set (k lsr 3)) land (1 lsl (k land 7)) <> 0

let put b k =
  let k = k land bucket_mask in
  let i = k lsr 3 and m = 1 lsl (k land 7) in
  let c = Char.code (Bytes.get b.set i) in
  if c land m = 0 then begin
    Bytes.set b.set i (Char.unsafe_chr (c lor m));
    b.card <- b.card + 1
  end

let to_array b =
  let out = Array.make b.card 0 in
  let n = ref 0 in
  Bytes.iteri
    (fun i c ->
      let c = Char.code c in
      if c <> 0 then
        for j = 0 to 7 do
          if c land (1 lsl j) <> 0 then begin
            out.(!n) <- (i lsl 3) lor j;
            incr n
          end
        done)
    b.set;
  out

(* ---------- streamed trace features ----------

   Each thread's stream (machine-level events, tid = -1, form their
   own, which is what makes recovery-path coverage a first-class
   signal) carries four pieces of state: its last two coverage points,
   its last boundary region and its last FASE-level point.  Every event
   then closes at most one 2-gram, one 3-gram, one boundary edge and
   one FASE-transition edge of its own thread's stream, so how threads
   interleave never changes the feature set. *)

let none = min_int

(* Per-thread state, four slots per stream at [4 * (tid + 1)]. *)
let older = 0
let last = 1
let region = 2
let fase_pt = 3

type acc = {
  bits : bits;
  ngram : int;  (* the salted seeds of the three feature classes *)
  boundary : int;
  fase : int;
  mutable streams : int array;
}

let acc ~scheme =
  let salt0 = strseed scheme in
  {
    bits = bits ();
    ngram = mix salt0 ngram_salt;
    boundary = mix salt0 boundary_salt;
    fase = mix salt0 fase_salt;
    streams = Array.make 16 none;
  }

let new_run a = Array.fill a.streams 0 (Array.length a.streams) none

let stream a tid =
  let s = 4 * (tid + 1) in
  let n = Array.length a.streams in
  if s + 4 > n then begin
    let grown = Array.make (max (s + 4) (2 * n)) none in
    Array.blit a.streams 0 grown 0 n;
    a.streams <- grown
  end;
  s

let is_fase_level = function
  | Obs.Boundary _ | Obs.Fase_enter | Obs.Fase_exit | Obs.Crash
  | Obs.Recovery_step _ ->
      true
  | _ -> false

let observe a (ev : Obs.event) =
  let s = stream a ev.Obs.tid in
  let st = a.streams in
  let p = Obs.coverage_point ev in
  let p1 = st.(s + last) in
  if p1 <> none then begin
    put a.bits (mix (mix a.ngram p1) p);
    let p2 = st.(s + older) in
    if p2 <> none then put a.bits (mix (mix (mix a.ngram p2) p1) p)
  end;
  st.(s + older) <- p1;
  st.(s + last) <- p;
  (match ev.Obs.kind with
  | Obs.Boundary { region = r; elided } ->
      let q = st.(s + region) in
      if q <> none then
        put a.bits (mix (mix (mix a.boundary q) r) (if elided then 1 else 0));
      st.(s + region) <- r
  | _ -> ());
  if is_fase_level ev.Obs.kind then begin
    let q = st.(s + fase_pt) in
    if q <> none then put a.bits (mix (mix a.fase q) p);
    st.(s + fase_pt) <- p
  end

let collect a = to_array a.bits
let merge a fs = Array.iter (put a.bits) fs

(* Statically-evaluated inputs have no trace; their behaviour is the
   diagnostic set the linter produced (plus a shape bucket, so distinct
   clean programs still register).  Sharing the bucket space with the
   trace features lets one seen-set cover both kinds of candidate. *)
let static_features ~scheme ~codes ~shape =
  let salt0 = strseed scheme in
  let b = bits () in
  List.iter (fun code -> put b (mix (mix salt0 diag_salt) (strseed code))) codes;
  put b (mix (mix salt0 shape_salt) (strseed shape));
  to_array b

let digest fs =
  let h = Array.fold_left mix 0x9E3779B1 fs in
  Printf.sprintf "%08x-%d" h (Array.length fs)

type t = bits

let create = bits
let buckets t = t.card

let novel t fs =
  Array.fold_left (fun n b -> if mem t b then n else n + 1) 0 fs

let add t fs = Array.iter (put t) fs
