type stats = {
  served : int;
  dropped : int;
  mean_ns : float;
  p50 : int;
  p95 : int;
  p99 : int;
  max_ns : int;
}

(* ---- HDR-style log-bucketed quantile sketch ------------------------

   Latencies below [exact_limit] get one bucket each (exact).  Above,
   each power-of-two octave is cut into [sub_count] equal sub-buckets,
   so a bucket spanning [low, low + width) has
   width / low <= 2^(e-sub_bits) / 2^e = 2^-sub_bits: any value
   reported from the bucket is within relative error 2^-sub_bits of
   any value in it.  OCaml ints are 63-bit, so the top octave is
   e = 61 and the table stays ~3.6k counters — constant memory at any
   request count, and merging two sketches is a bucket-wise add. *)

let sub_bits = 6
let sub_count = 1 lsl sub_bits  (* 64 sub-buckets per octave *)
let exact_limit = 2 * sub_count  (* values < 128 are exact *)
let max_exponent = 61  (* floor (log2 max_int), max_int = 2^62 - 1 *)
let n_buckets = exact_limit + ((max_exponent - sub_bits) * sub_count)
let relative_error = 1.0 /. float_of_int sub_count

type t = {
  buckets : int array;
  mutable n : int;
  mutable sum : int;  (* 63-bit: safe up to ~4.6e18 total ns *)
  mutable max_v : int;
}

let create () = { buckets = Array.make n_buckets 0; n = 0; sum = 0; max_v = 0 }

let bucket_of v =
  if v < exact_limit then v
  else begin
    (* e = floor (log2 v) >= sub_bits + 1; the top [sub_bits + 1]
       bits of v are [1 | sub-index]. *)
    let e = ref (sub_bits + 1) in
    while v lsr (!e + 1) > 0 do
      incr e
    done;
    let sub = (v lsr (!e - sub_bits)) land (sub_count - 1) in
    exact_limit + (((!e - sub_bits - 1) * sub_count) + sub)
  end

(* Largest value the bucket can hold (inclusive). *)
let bucket_top idx =
  if idx < exact_limit then idx
  else begin
    let off = idx - exact_limit in
    let e = sub_bits + 1 + (off / sub_count) in
    let sub = off mod sub_count in
    let width = 1 lsl (e - sub_bits) in
    (1 lsl e) + (sub * width) + width - 1
  end

let add t v =
  let v = max 0 v in
  let idx = bucket_of v in
  t.buckets.(idx) <- t.buckets.(idx) + 1;
  t.n <- t.n + 1;
  t.sum <- t.sum + v;
  if v > t.max_v then t.max_v <- v

let merge ~into src =
  Array.iteri (fun i c -> into.buckets.(i) <- into.buckets.(i) + c) src.buckets;
  into.n <- into.n + src.n;
  into.sum <- into.sum + src.sum;
  if src.max_v > into.max_v then into.max_v <- src.max_v

(* Nearest-rank over the bucket counts: find the bucket holding the
   rank-[ceil (q/100 * n)] sample and report its top, capped at the
   observed maximum so degenerate cases (n = 1, or every sample in
   one bucket) stay exact. *)
let percentile_sketch t q =
  if t.n = 0 then 0
  else begin
    let rank = int_of_float (ceil (q /. 100.0 *. float_of_int t.n)) in
    let rank = min t.n (max 1 rank) in
    let idx = ref 0 and seen = ref 0 in
    while !seen < rank do
      seen := !seen + t.buckets.(!idx);
      if !seen < rank then incr idx
    done;
    min (bucket_top !idx) t.max_v
  end

let stats ?(dropped = 0) t =
  {
    served = t.n;
    dropped;
    mean_ns = (if t.n = 0 then 0.0 else float_of_int t.sum /. float_of_int t.n);
    p50 = percentile_sketch t 50.0;
    p95 = percentile_sketch t 95.0;
    p99 = percentile_sketch t 99.0;
    max_ns = t.max_v;
  }

(* ---- exact nearest-rank (reference and test paths) ----------------- *)

(* Nearest-rank on an ascending array: the smallest latency such that
   at least q% of samples are <= it.  p100 is the maximum. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0
  else begin
    let rank = int_of_float (ceil (q /. 100.0 *. float_of_int n)) in
    let rank = min n (max 1 rank) in
    sorted.(rank - 1)
  end

let of_latencies ?(dropped = 0) latencies =
  let sorted = Array.copy latencies in
  (* [Int.compare], not polymorphic [compare]: the data is known int,
     and the polymorphic path dispatches on the representation at
     every comparison. *)
  Array.sort Int.compare sorted;
  let n = Array.length sorted in
  {
    served = n;
    dropped;
    mean_ns =
      (if n = 0 then 0.0
       else float_of_int (Array.fold_left ( + ) 0 sorted) /. float_of_int n);
    p50 = percentile sorted 50.0;
    p95 = percentile sorted 95.0;
    p99 = percentile sorted 99.0;
    max_ns = (if n = 0 then 0 else sorted.(n - 1));
  }

let json_fields s =
  Printf.sprintf
    {|"served":%d,"dropped":%d,"mean_ns":%.1f,"p50":%d,"p95":%d,"p99":%d,"max_ns":%d|}
    s.served s.dropped s.mean_ns s.p50 s.p95 s.p99 s.max_ns
