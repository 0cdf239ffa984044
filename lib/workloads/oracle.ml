(* Pure reference models of the persistent structures, evaluated
   against a raw memory image.  No dependency on the VM: memory is
   abstracted as a load function so the crash engine can hand us the
   persistence domain directly. *)

type mem = { load : int -> int64; size : int }

type mode = Atomic | Prefix

let default_mode scheme =
  if (Ido_runtime.Scheme.props scheme).failure_atomic then Atomic else Prefix

let mode_name = function Atomic -> "atomic" | Prefix -> "prefix"

let mode_of_name = function
  | "atomic" -> Some Atomic
  | "prefix" -> Some Prefix
  | _ -> None

exception Bad of string

let badf fmt = Format.kasprintf (fun s -> raise (Bad s)) fmt

(* Generous bound on any chain walk: a structure that grows past this
   under the bounded workloads we drive is corrupt (cycle or runaway),
   and bounding keeps the oracle total on arbitrary torn images. *)
let max_walk = 1 lsl 16

let word mem a =
  if a < 0 || a >= mem.size then badf "load @%d out of bounds" a;
  mem.load a

let iword mem a = Int64.to_int (word mem a)

(* A pointer word: must be null or a plausible heap address.  Pointer
   stores are 8-byte atomic, so even a torn (Origin) image only ever
   holds old-or-new pointer values — a wild one is corruption under
   every scheme. *)
let ptr mem a =
  let v = word mem a in
  let p = Int64.to_int v in
  if p < 0 || p >= mem.size then badf "wild pointer %Ld at @%d" v a;
  p

let nonnull what p = if p = 0 then badf "%s is null" what else p

(* ---------- stack ----------
   desc: [0] head, [1] size.  Node: [0] value, [1] next. *)

let stack_elems mem desc =
  let rec go acc n cur =
    if cur = 0 then List.rev acc
    else if n > max_walk then badf "stack chain exceeds %d nodes" max_walk
    else go (word mem cur :: acc) (n + 1) (ptr mem (cur + 1))
  in
  go [] 0 (ptr mem desc)

let check_stack ~mode mem desc =
  let elems = stack_elems mem desc in
  match mode with
  | Prefix -> ()
  | Atomic ->
      let size = word mem (desc + 1) in
      let n = List.length elems in
      if Int64.of_int n <> size then
        badf "stack size field %Ld but %d reachable nodes" size n

(* ---------- queue ----------
   desc: [0] head (dummy), [1] tail, [2] enqueues, [3] dequeues.
   Node: [0] value, [1] next.  Elements hang off the dummy's next;
   the tail pointer names the last reachable node (the dummy when
   empty). *)

let queue_elems mem desc =
  let dummy = nonnull "queue head" (ptr mem desc) in
  let rec go acc n last cur =
    if cur = 0 then (List.rev acc, last)
    else if n > max_walk then badf "queue chain exceeds %d nodes" max_walk
    else go (word mem cur :: acc) (n + 1) cur (ptr mem (cur + 1))
  in
  go [] 0 dummy (ptr mem (dummy + 1))

let check_queue ~mode mem desc =
  let elems, last = queue_elems mem desc in
  match mode with
  | Prefix ->
      (* The tail may lag or run ahead of the reachable chain in a
         torn image; only its well-formedness is checked (by ptr). *)
      ignore (nonnull "queue tail" (ptr mem (desc + 1)))
  | Atomic ->
      let enq = word mem (desc + 2) and deq = word mem (desc + 3) in
      if Int64.compare deq 0L < 0 || Int64.compare enq deq < 0 then
        badf "queue counters enq=%Ld deq=%Ld" enq deq;
      let expect = Int64.sub enq deq in
      let n = Int64.of_int (List.length elems) in
      if n <> expect then
        badf "queue has %Ld elements, counters say %Ld" n expect;
      let tail = nonnull "queue tail" (ptr mem (desc + 1)) in
      if tail <> last then
        badf "queue tail @%d is not the last reachable node @%d" tail last

(* ---------- olist / hmap buckets ----------
   Node: [0] key, [1] next, [2] lock word, [3] value; head sentinel
   key -1, tail sentinel key 2^40. *)

let olist_tail_key = Int64.shift_left 1L 40

(* Returns (key, value) pairs, excluding sentinels.  In a torn image
   the chain may end at null instead of the tail sentinel (an inserted
   node whose next field never persisted); Atomic mode insists on the
   sentinel and on strictly ascending keys. *)
let olist_elems ~mode mem head =
  let rec go acc n prev_key cur =
    if n > max_walk then badf "olist chain exceeds %d nodes" max_walk
    else if cur = 0 then (
      if mode = Atomic then badf "olist ends at null, not the tail sentinel";
      List.rev acc)
    else
      let key = word mem cur in
      if key = olist_tail_key then List.rev acc
      else (
        if mode = Atomic && Int64.compare key prev_key <= 0 then
          badf "olist keys not ascending: %Ld after %Ld" key prev_key;
        let v = word mem (cur + 3) in
        go ((key, v) :: acc) (n + 1) key (ptr mem (cur + 1)))
  in
  go [] 0 Int64.min_int (ptr mem (head + 1))

let check_olist ~mode mem head = ignore (olist_elems ~mode mem head)

(* ---------- hmap ----------
   desc: [0] nbuckets, [1+i] bucket head sentinel. *)

let hmap_buckets mem desc =
  let nb = iword mem desc in
  if nb <= 0 || nb > 1 lsl 20 then badf "hmap bucket count %d" nb;
  List.init nb (fun i -> nonnull "hmap bucket" (ptr mem (desc + 1 + i)))

let check_hmap ~mode mem desc =
  List.iter (check_olist ~mode mem) (hmap_buckets mem desc)

(* ---------- kvcache ----------
   desc: [0] lock, [1] nbuckets, [2] count, [3+i] chain heads.
   Entry: [0] key, [1] next, [2] value, [3] flags=1, [4] access time
   (value or value+1), [5] size=24, [6] value+1, [7] value+2. *)

(* Mirror of Kvcache.chain_slot: multiply-shift with the interpreter's
   operator semantics (Shr logical, Rem of a non-negative product). *)
let kv_bucket k nb =
  let h1 = Int64.mul k 0x9E3779B9L in
  let h2 = Int64.shift_right_logical h1 16 in
  let h3 = Int64.logxor h1 h2 in
  let idx = if nb = 0L then 0L else Int64.rem h3 nb in
  Int64.to_int (Int64.logand idx 0xFFFFL)

let kv_chain mem slot =
  let rec go acc n cur =
    if cur = 0 then List.rev acc
    else if n > max_walk then badf "kvcache chain exceeds %d entries" max_walk
    else go (cur :: acc) (n + 1) (ptr mem (cur + 1))
  in
  go [] 0 (ptr mem slot)

let check_kv_entry mem nb bucket e =
  let k = word mem e and v = word mem (e + 2) in
  if kv_bucket k nb <> bucket then
    badf "kvcache key %Ld filed in bucket %d" k bucket;
  if word mem (e + 3) <> 1L then badf "kvcache entry %d flags torn" e;
  if word mem (e + 5) <> 24L then badf "kvcache entry %d size torn" e;
  let at = word mem (e + 4) in
  if at <> v && at <> Int64.add v 1L then
    badf "kvcache entry %d access time %Ld vs value %Ld" e at v;
  if word mem (e + 6) <> Int64.add v 1L || word mem (e + 7) <> Int64.add v 2L
  then badf "kvcache entry %d payload torn (value %Ld)" e v

let check_kvcache ~mode mem desc =
  let nb = word mem (desc + 1) in
  let nbi = Int64.to_int nb in
  if nbi <= 0 || nbi > 1 lsl 20 then badf "kvcache bucket count %d" nbi;
  let total = ref 0 in
  for i = 0 to nbi - 1 do
    let chain = kv_chain mem (desc + 3 + i) in
    total := !total + List.length chain;
    if mode = Atomic then List.iter (check_kv_entry mem nb i) chain
  done;
  if mode = Atomic then begin
    let count = word mem (desc + 2) in
    if Int64.of_int !total <> count then
      badf "kvcache holds %d entries, count field says %Ld" !total count
  end

(* ---------- objstore ----------
   desc: [0] nbuckets, [1] count, [2+i] chain heads.
   Object: [0] key, [1] next, [2+j] = key + j for j < 8. *)

let obj_payload_words = 8

let check_object mem nb bucket e =
  let k = word mem e in
  if (if nb = 0L then 0L else Int64.rem k nb) <> Int64.of_int bucket then
    badf "objstore key %Ld filed in bucket %d" k bucket;
  for j = 0 to obj_payload_words - 1 do
    let w = word mem (e + 2 + j) in
    if w <> Int64.add k (Int64.of_int j) then
      badf "objstore object %Ld payload word %d torn (%Ld)" k j w
  done

let check_objstore ~mode mem desc =
  let nb = word mem desc in
  let nbi = Int64.to_int nb in
  if nbi <= 0 || nbi > 1 lsl 20 then badf "objstore bucket count %d" nbi;
  let total = ref 0 in
  for i = 0 to nbi - 1 do
    let chain = kv_chain mem (desc + 2 + i) in
    total := !total + List.length chain;
    if mode = Atomic then List.iter (check_object mem nb i) chain
  done;
  if mode = Atomic then begin
    let count = word mem (desc + 1) in
    if Int64.of_int !total <> count then
      badf "objstore holds %d objects, count field says %Ld" !total count
  end

(* ---------- mlog ----------
   desc: [0] capacity, [1] head, [2] tail, [3] lock, [4..] slots of
   4 words: [0] seq, [1] a, [2] 2a, [3] seq+a+2a. *)

let check_mlog ~mode mem desc =
  let cap = iword mem desc in
  if cap <= 0 || cap > 1 lsl 20 then badf "mlog capacity %d" cap;
  let h = word mem (desc + 1) and t = word mem (desc + 2) in
  match mode with
  | Prefix ->
      (* Cursors persist independently; a torn image may even show
         t > h.  Readability of the descriptor is all we insist on. *)
      ()
  | Atomic ->
      if Int64.compare t h > 0 then badf "mlog cursors t=%Ld > h=%Ld" t h;
      let live = Int64.sub h t in
      if Int64.compare live (Int64.of_int cap) > 0 then
        badf "mlog %Ld live records exceed capacity %d" live cap;
      let i = ref t in
      while Int64.compare !i h < 0 do
        let slot = desc + 4 + (Int64.to_int (Int64.rem !i (Int64.of_int cap)) * 4) in
        let seq = word mem slot
        and a = word mem (slot + 1)
        and b = word mem (slot + 2)
        and ck = word mem (slot + 3) in
        if seq <> !i then badf "mlog record %Ld has seq %Ld" !i seq;
        if b <> Int64.mul 2L a then badf "mlog record %Ld payload torn" !i;
        if ck <> Int64.add seq (Int64.add a b) then
          badf "mlog record %Ld fails checksum" !i;
        i := Int64.add !i 1L
      done

(* ---------- canonical renderings (for cross-scheme comparison) ---------- *)

let buf_i64s b l =
  List.iter (fun v -> Buffer.add_string b (Int64.to_string v); Buffer.add_char b ',') l

let render_stack b mem desc =
  Buffer.add_string b "stack:";
  buf_i64s b (stack_elems mem desc)

let render_queue b mem desc =
  let elems, _ = queue_elems mem desc in
  Buffer.add_string b
    (Printf.sprintf "queue:e%Ld,d%Ld:" (word mem (desc + 2))
       (word mem (desc + 3)));
  buf_i64s b elems

let render_olist b mem desc =
  Buffer.add_string b "olist:";
  List.iter
    (fun (k, v) -> Buffer.add_string b (Printf.sprintf "%Ld=%Ld," k v))
    (olist_elems ~mode:Atomic mem desc)

let render_hmap b mem desc =
  Buffer.add_string b "hmap:";
  List.iteri
    (fun i head ->
      Buffer.add_string b (Printf.sprintf "|%d:" i);
      List.iter
        (fun (k, v) -> Buffer.add_string b (Printf.sprintf "%Ld=%Ld," k v))
        (olist_elems ~mode:Atomic mem head))
    (hmap_buckets mem desc)

let render_kvcache b mem desc =
  let nb = iword mem (desc + 1) in
  Buffer.add_string b (Printf.sprintf "kvcache:c%Ld" (word mem (desc + 2)));
  for i = 0 to nb - 1 do
    Buffer.add_string b (Printf.sprintf "|%d:" i);
    List.iter
      (fun e ->
        Buffer.add_string b
          (Printf.sprintf "%Ld=%Ld," (word mem e) (word mem (e + 2))))
      (kv_chain mem (desc + 3 + i))
  done

let render_objstore b mem desc =
  let nb = iword mem desc in
  Buffer.add_string b (Printf.sprintf "objstore:c%Ld" (word mem (desc + 1)));
  for i = 0 to nb - 1 do
    Buffer.add_string b (Printf.sprintf "|%d:" i);
    List.iter
      (fun e -> Buffer.add_string b (Printf.sprintf "%Ld," (word mem e)))
      (kv_chain mem (desc + 2 + i))
  done

let render_mlog b mem desc =
  let cap = iword mem desc in
  let h = word mem (desc + 1) and t = word mem (desc + 2) in
  Buffer.add_string b (Printf.sprintf "mlog:h%Ld,t%Ld:" h t);
  let i = ref t in
  while Int64.compare !i h < 0 do
    let slot = desc + 4 + (Int64.to_int (Int64.rem !i (Int64.of_int cap)) * 4) in
    Buffer.add_string b (Printf.sprintf "%Ld," (word mem (slot + 1)));
    i := Int64.add !i 1L
  done

(* ---------- first-class oracle implementations ---------- *)

type impl = {
  check : mode:mode -> mem -> int -> unit;
  render : Buffer.t -> mem -> int -> unit;
}

let stack = { check = check_stack; render = render_stack }
let queue = { check = check_queue; render = render_queue }

let olist =
  { check = (fun ~mode mem d -> check_olist ~mode mem d); render = render_olist }

let hmap = { check = check_hmap; render = render_hmap }
let kvcache = { check = check_kvcache; render = render_kvcache }
let objstore = { check = check_objstore; render = render_objstore }
let mlog = { check = check_mlog; render = render_mlog }

let root_desc mem root =
  let d = Int64.to_int root in
  if d <= 0 || d >= mem.size then badf "root slot holds %Ld" root;
  d

let check impl ~mode ~root mem =
  match impl.check ~mode mem (root_desc mem root) with
  | () -> Ok ()
  | exception Bad msg -> Error msg

let render impl ~root mem =
  let b = Buffer.create 256 in
  (try impl.render b mem (root_desc mem root)
   with Bad msg -> Buffer.add_string b ("malformed:" ^ msg));
  Buffer.contents b

(* ---------- by-name compatibility dispatch ---------- *)

let of_name = function
  | "stack" -> Some stack
  | "queue" -> Some queue
  | "olist" | "olistrm" -> Some olist
  | "hmap" -> Some hmap
  | "kvcache50" | "kvcache10" -> Some kvcache
  | "objstore" -> Some objstore
  | "mlog" -> Some mlog
  | _ -> None

let named w =
  match of_name w with
  | Some impl -> impl
  | None -> invalid_arg ("Oracle: unknown workload " ^ w)

let known w = of_name w <> None
let validate ~workload ~mode ~root mem = check (named workload) ~mode ~root mem
let digest ~workload ~root mem = render (named workload) ~root mem
