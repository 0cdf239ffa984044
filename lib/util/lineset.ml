(* A reusable set of small non-negative ints (cache-line numbers),
   built for the VM's per-FASE dirty-line tracking: [add] is
   O(1) via open addressing, iteration visits members in insertion
   order (so flush order is deterministic and independent of hashing),
   and [reset] is O(members) — it re-zeroes only the slots that were
   used, keeping both arrays for the next FASE instead of allocating.

   Slots store [line + 1] so 0 means empty; capacity is a power of two
   and doubles when load exceeds 1/2. *)

type t = {
  mutable slots : int array; (* 0 = empty, else member + 1 *)
  mutable mask : int;
  mutable members : int array; (* insertion order, [0, count) *)
  mutable count : int;
}

let rec pow2 n c = if c >= n then c else pow2 n (c * 2)

let create ?(capacity = 16) () =
  let cap = pow2 (max 4 capacity) 4 in
  { slots = Array.make cap 0; mask = cap - 1; members = Array.make cap 0; count = 0 }

(* SplitMix-style finaliser: line numbers are near-sequential, so a
   plain [land mask] would cluster; one multiply-shift scatters them. *)
let hash x = (x * 0x9E3779B1) lsr 8

let rec probe slots mask key i =
  let v = slots.(i) in
  if v = 0 || v = key + 1 then i else probe slots mask key ((i + 1) land mask)

(* Doubles both arrays: the member array keeps one slot per table slot,
   so it never fills before the table does. *)
let grow t =
  let cap = 2 * (t.mask + 1) in
  let slots = Array.make cap 0 in
  let mask = cap - 1 in
  for j = 0 to t.count - 1 do
    let m = t.members.(j) in
    slots.(probe slots mask m (hash m land mask)) <- m + 1
  done;
  let members = Array.make cap 0 in
  Array.blit t.members 0 members 0 t.count;
  t.slots <- slots;
  t.mask <- mask;
  t.members <- members

let add t x =
  if x < 0 then invalid_arg "Lineset.add: negative member";
  let i = probe t.slots t.mask x (hash x land t.mask) in
  if t.slots.(i) = 0 then begin
    t.slots.(i) <- x + 1;
    t.members.(t.count) <- x;
    t.count <- t.count + 1;
    if 2 * t.count > t.mask then grow t
  end

let cardinal t = t.count

let is_empty t = t.count = 0

let nth t i =
  if i < 0 || i >= t.count then invalid_arg "Lineset.nth: index out of range";
  t.members.(i)

let reset t =
  (* memset the whole table: capacity stays within a small factor of
     the member count, and a fill is faster than chasing probe chains
     (clearing chain slots one by one can orphan later entries). *)
  if t.count > 0 then Array.fill t.slots 0 (t.mask + 1) 0;
  t.count <- 0
