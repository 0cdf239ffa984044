open Ido_util

type request = {
  id : int;
  arrival : int;
  key : int;
  dice : int;
  value : int;
  shard : int;
}

(* SplitMix64 finalizer: routing must decorrelate the key from its
   shard (Zipf rank 0 is the hottest key; consecutive ranks must not
   land on consecutive shards), and must not depend on [Hashtbl.hash]
   internals. *)
let shard_of ~shards key =
  Int64.to_int (Int64.rem (Int64.logand (Rng.mix64 (Int64.of_int key)) Int64.max_int)
                  (Int64.of_int shards))

(* Inverse-CDF exponential gap.  [u] comes from [Rng.float rng 1.0],
   which is < 1.0 by construction, but the clamp is load-bearing
   anyway: a float rounding to 1.0 would make [log (1.0 -. u)] equal
   to -infinity, and the poisoned gap would corrupt the arrival clock
   for the rest of the stream.  Clamping the survival probability at
   [2^-53] (one ulp below 1.0 from below) caps the gap at
   [mean * 53 ln 2] — the longest gap a 53-bit uniform can
   legitimately express. *)
let gap_of_u ~mean u =
  let survival = Float.max (1.0 -. u) 0x1p-53 in
  max 1 (int_of_float ((-.mean *. log survival) +. 0.5))

type plan = {
  config : Config.t;
  key_range : int;
  mass : float array;  (* per shard, key-probability mass; sums to ~1 *)
  counts : int array;  (* per shard, apportioned request count *)
}

let plan (c : Config.t) ~key_range =
  let shards = Config.shards c in
  let zipf =
    Option.map (fun e -> Zipf.create ~exponent:e key_range) c.Config.zipf
  in
  let pmf k =
    match zipf with
    | Some z -> Zipf.pmf z k
    | None -> 1.0 /. float_of_int key_range
  in
  (* O(key_range) pass: each key's probability goes to its shard. *)
  let mass = Array.make shards 0.0 in
  for k = 0 to key_range - 1 do
    let s = shard_of ~shards k in
    mass.(s) <- mass.(s) +. pmf k
  done;
  let total_mass = Array.fold_left ( +. ) 0.0 mass in
  (* Largest-remainder apportionment of the request count.  The
     fractional remainders sum to the leftover count and each is < 1,
     so at least [leftover] shards have a positive remainder: a
     zero-mass shard (remainder 0, sorted last) is never reached.
     Ties break by shard index — fully deterministic. *)
  let n = c.Config.requests in
  let quota = Array.map (fun m -> float_of_int n *. m /. total_mass) mass in
  let counts = Array.map (fun q -> int_of_float (floor q)) quota in
  let leftover = n - Array.fold_left ( + ) 0 counts in
  let order = Array.init shards Fun.id in
  Array.sort
    (fun a b ->
      let fa = quota.(a) -. floor quota.(a)
      and fb = quota.(b) -. floor quota.(b) in
      if fa <> fb then Float.compare fb fa else Int.compare a b)
    order;
  for i = 0 to leftover - 1 do
    let s = order.(i mod shards) in
    counts.(s) <- counts.(s) + 1
  done;
  (* Belt and braces against float drift in the remainder argument: a
     request on a shard that owns no keys would never find a key to
     serve (the rejection sampler below could not terminate). *)
  for s = 0 to shards - 1 do
    if mass.(s) = 0.0 && counts.(s) > 0 then begin
      let heaviest = ref 0 in
      for t = 1 to shards - 1 do
        if mass.(t) > mass.(!heaviest) then heaviest := t
      done;
      counts.(!heaviest) <- counts.(!heaviest) + counts.(s);
      counts.(s) <- 0
    end
  done;
  { config = c; key_range; mass; counts }

let shard_count p shard = p.counts.(shard)

type stream = {
  shard : int;
  shards : int;
  key_range : int;
  total : int;
  rng : Rng.t;
  zipf : Zipf.t option;
  mean_gap : float;  (* period_ns / shard mass: thinned Poisson *)
  mutable emitted : int;
  mutable arrival : int;
}

let sub_stream (p : plan) shard =
  let c = p.config in
  {
    shard;
    shards = Config.shards c;
    key_range = p.key_range;
    total = p.counts.(shard);
    (* salt 1: the stream draws must stay independent of the shard
       VM's own randomness, which is seeded with the salt-0 seed. *)
    rng = Rng.create (Config.shard_seed ~salt:1 c shard);
    zipf =
      Option.map (fun e -> Zipf.create ~exponent:e p.key_range) c.Config.zipf;
    mean_gap = float_of_int c.Config.period_ns /. p.mass.(shard);
    emitted = 0;
    arrival = 0;
  }

(* Draw the next request of the sub-stream.  The key is
   rejection-sampled from the cell's full key distribution until it
   routes here: conditioning preserves both the routing invariant
   (every key served by shard [s] satisfies [shard_of key = s]) and
   the within-shard key skew.  Terminates because the shard's mass is
   positive whenever [total > 0] (see [plan]). *)
let next s =
  if s.emitted >= s.total then None
  else begin
    let u = Rng.float s.rng 1.0 in
    s.arrival <- s.arrival + gap_of_u ~mean:s.mean_gap u;
    let rec draw_key () =
      let k =
        match s.zipf with
        | Some z -> Zipf.sample z s.rng
        | None -> Rng.int s.rng s.key_range
      in
      if shard_of ~shards:s.shards k = s.shard then k else draw_key ()
    in
    let key = draw_key () in
    let dice = Rng.int s.rng 100 in
    let value = Rng.int s.rng 1_000_000 in
    let r =
      { id = s.emitted; arrival = s.arrival; key; dice; value; shard = s.shard }
    in
    s.emitted <- s.emitted + 1;
    Some r
  end

(* ------------------------------------------------------------------ *)
(* Elastic-topology helpers: which group is hot/cold, and how a split
   re-derives the hot group's masses over the new map. *)

let hottest p =
  let h = ref 0 in
  Array.iteri (fun s m -> if m > p.mass.(!h) then h := s) p.mass;
  !h

let coldest p =
  let hot = hottest p in
  let shards = Array.length p.mass in
  if shards = 1 then 0
  else begin
    let c = ref (if hot = 0 then 1 else 0) in
    Array.iteri
      (fun s m -> if s <> hot && m < p.mass.(!c) then c := s)
      p.mass;
    !c
  end

(* Second, salted mix: the split half must be independent of the
   primary route (bit of [Rng.mix64 key mod shards]) so a split cuts every
   group's key space roughly in half regardless of the group count. *)
let split_bit key =
  Int64.to_int (Int64.logand (Rng.mix64 (Int64.of_int (key lxor 0x5b1d))) 1L) = 1

type split_info = { stay_mass : float; move_mass : float }

let split_info (p : plan) ~group =
  let c = p.config in
  let zipf =
    Option.map (fun e -> Zipf.create ~exponent:e p.key_range) c.Config.zipf
  in
  let pmf k =
    match zipf with
    | Some z -> Zipf.pmf z k
    | None -> 1.0 /. float_of_int p.key_range
  in
  let shards = Config.shards c in
  let stay = ref 0.0 and move = ref 0.0 in
  for k = 0 to p.key_range - 1 do
    if shard_of ~shards k = group then
      if split_bit k then move := !move +. pmf k else stay := !stay +. pmf k
  done;
  { stay_mass = !stay; move_mass = !move }

let materialize (p : plan) shard =
  let s = sub_stream p shard in
  Array.init s.total (fun _ ->
      match next s with
      | Some r -> r
      | None -> assert false (* [total] requests by construction *))
