(* A growable array with amortised O(1) append, preserving insertion
   order.  Replaces the quadratic [xs <- xs @ [x]] accumulation pattern
   in hot paths (the VM's thread table grows by one per spawn, and the
   harness spawns a worker per measured iteration). *)

type 'a t = { mutable data : 'a array; mutable len : int }

let create () = { data = [||]; len = 0 }

let length v = v.len

let get v i =
  if i < 0 || i >= v.len then invalid_arg "Vec.get: index out of bounds";
  v.data.(i)

let set v i x =
  if i < 0 || i >= v.len then invalid_arg "Vec.set: index out of bounds";
  v.data.(i) <- x

let push v x =
  let cap = Array.length v.data in
  if v.len = cap then begin
    let data = Array.make (max 8 (2 * cap)) x in
    Array.blit v.data 0 data 0 v.len;
    v.data <- data
  end;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

let pop v =
  if v.len = 0 then invalid_arg "Vec.pop: empty";
  v.len <- v.len - 1;
  v.data.(v.len)

let clear v =
  v.data <- [||];
  v.len <- 0

(* Like [clear] but keeps the backing storage for reuse — the arena
   paths reset per-run Vecs thousands of times per second.  Dropped
   slots are overwritten so their elements can be collected. *)
let truncate v =
  if v.len > 0 then begin
    let fill = v.data.(0) in
    for i = 0 to v.len - 1 do
      v.data.(i) <- fill
    done;
    v.len <- 0
  end

let iter f v =
  for i = 0 to v.len - 1 do
    f v.data.(i)
  done

let fold_left f acc v =
  let acc = ref acc in
  for i = 0 to v.len - 1 do
    acc := f !acc v.data.(i)
  done;
  !acc

let exists p v =
  let rec go i = i < v.len && (p v.data.(i) || go (i + 1)) in
  go 0

let to_list v = List.init v.len (fun i -> v.data.(i))
let to_array v = Array.sub v.data 0 v.len

let filter_in_place p v =
  let keep = ref 0 in
  for i = 0 to v.len - 1 do
    let x = v.data.(i) in
    if p x then begin
      v.data.(!keep) <- x;
      incr keep
    end
  done;
  (* Release dropped elements so they can be collected. *)
  if !keep > 0 then
    for i = !keep to v.len - 1 do
      v.data.(i) <- v.data.(0)
    done
  else v.data <- [||];
  v.len <- !keep
