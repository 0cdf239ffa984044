open Ido_util

type addr = int

let words_per_line = 8

(* The memory is paged.  A page is 512 words (4 KiB, 64 lines) held
   once, unboxed: [cur] has the newest value of every word (the only
   image [load] reads).  A clean line's [cur] words are its persisted
   words; only a dirty line's persisted words differ, and they are kept
   in the pre-image pool (see [t]).  [slots] gives each line's position
   in the dirty index, or -1 when it is clean, so a read is two array
   indexings and a word load, with no hashing and no allocation. *)
let line_shift = 3
let page_shift = 9
let page_words = 1 lsl page_shift
let lines_per_page = page_words / words_per_line
let line_bytes = words_per_line * 8
let page_bytes = page_words * 8

type counters = {
  mutable loads : int;
  mutable stores : int;
  mutable clwbs : int;
  mutable writebacks : int;
  mutable fences : int;
  mutable evictions : int;
}

type page = {
  cur : Bytes.t;  (* [page_words] words: the newest values *)
  slots : int array;  (* [lines_per_page]: dirty-index position or -1 *)
}

(* Every word offset is masked into its page or its pool slot, so the
   unchecked word accessors never leave the buffer. *)
external get_word : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set_word : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let new_page () =
  {
    cur = Bytes.make page_bytes '\000';
    slots = Array.make lines_per_page (-1);
  }

(* Every page table entry starts here, shared by all memories: reads
   see zeros, and the first write to a page gives it a private copy
   ([writable]).  Nothing ever writes into it. *)
let zero_page = new_page ()

type t = {
  size : int;
  pages : page array;
  touched : int Vec.t;  (* numbers of the pages [writable] materialised *)
  mutable dirty : int array;  (* dirty line numbers, [0, ndirty) *)
  mutable pre_slot : int array;
      (* beside [dirty], a permutation of the pool slots: [pre_slot.(i)]
         holds [dirty.(i)]'s pre-image for [i < ndirty], and the rest
         are free *)
  mutable pre : Bytes.t;  (* the pool: [line_bytes] per slot *)
  mutable ndirty : int;
  cache_lines : int;
  rng : Rng.t;
  counters : counters;
  mutable pending : int;
  mutable event_hook : (Ido_obs.Obs.kind -> unit) option;
}

let create ?(cache_lines = 1024) ~rng size =
  if size <= 0 then invalid_arg "Pmem.create: size must be positive";
  if cache_lines < 1 then
    invalid_arg
      (Printf.sprintf "Pmem.create: cache_lines must be >= 1 (got %d)"
         cache_lines);
  {
    size;
    pages = Array.make ((size + page_words - 1) lsr page_shift) zero_page;
    touched = Vec.create ();
    dirty = Array.make (Stdlib.min cache_lines 64) 0;
    pre_slot = Array.init (Stdlib.min cache_lines 64) Fun.id;
    pre = Bytes.create (Stdlib.min cache_lines 64 * line_bytes);
    ndirty = 0;
    cache_lines;
    rng;
    counters =
      { loads = 0; stores = 0; clwbs = 0; writebacks = 0; fences = 0;
        evictions = 0 };
    pending = 0;
    event_hook = None;
  }

let size t = t.size
let counters t = t.counters
let materialised_pages t = Vec.length t.touched

let set_event_hook t f = t.event_hook <- f

let out_of_bounds addr =
  invalid_arg (Printf.sprintf "Pmem: address %d out of bounds" addr)

let check t addr = if addr < 0 || addr >= t.size then out_of_bounds addr

let page_of t addr = t.pages.(addr lsr page_shift)
let byte_in_page addr = (addr land (page_words - 1)) lsl 3
let page_of_line t lineno = t.pages.(lineno lsr (page_shift - line_shift))
let line_slot lineno = lineno land (lines_per_page - 1)
let slot_in_page addr = line_slot (addr lsr line_shift)
let line_byte lineno = line_slot lineno * line_bytes

(* The page holding [addr], materialised on its first write. *)
let writable t addr =
  let p = page_of t addr in
  if p != zero_page then p
  else begin
    let p = new_page () in
    t.pages.(addr lsr page_shift) <- p;
    Vec.push t.touched (addr lsr page_shift);
    p
  end

let[@inline] load t addr =
  check t addr;
  t.counters.loads <- t.counters.loads + 1;
  get_word (page_of t addr).cur (byte_in_page addr)

(* The [_int] accessors are the [int64] ones with the conversion inside
   this module, where it stays unboxed: a caller in another module
   passes or receives a plain [int]. *)
let load_int t addr = Int64.to_int (load t addr)

(* Byte offset in the pool of the word [addr] of the line at dirty-index
   position [pos]. *)
let pre_byte t pos addr =
  (t.pre_slot.(pos) * line_bytes) + ((addr land (words_per_line - 1)) lsl 3)

(* The dirty index lists the dirty lines' numbers in a flat array so a
   uniformly random one is one [Rng.int] away; removal swaps the last
   entry in (order inside the array is irrelevant — the victim choice
   is random anyway).  A clean line's [cur] bytes are its persisted
   bytes, so dirtying it saves them in the pool slot its position
   holds.  No more than [cache_lines] lines are ever dirty, which caps
   the growth. *)
let index_add t p lineno =
  let n = t.ndirty in
  if n = Array.length t.dirty then begin
    let cap = Stdlib.min (2 * n) t.cache_lines in
    let grown = Array.make cap 0 in
    Array.blit t.dirty 0 grown 0 n;
    t.dirty <- grown;
    t.pre_slot <-
      Array.init cap (fun i -> if i < n then t.pre_slot.(i) else i);
    t.pre <- Bytes.extend t.pre 0 ((cap - n) * line_bytes)
  end;
  p.slots.(line_slot lineno) <- n;
  t.dirty.(n) <- lineno;
  Bytes.unsafe_blit p.cur (line_byte lineno) t.pre
    (t.pre_slot.(n) * line_bytes) line_bytes;
  t.ndirty <- n + 1

(* The line's newest words become its persisted ones where they stand:
   mark it clean and free its pool slot.  The last entry of the index,
   and its slot, move into the freed position. *)
let write_back t lineno =
  let p = page_of_line t lineno in
  let pos = p.slots.(line_slot lineno) in
  p.slots.(line_slot lineno) <- -1;
  let n = t.ndirty - 1 in
  t.ndirty <- n;
  if pos <> n then begin
    let last = t.dirty.(n) in
    t.dirty.(pos) <- last;
    (page_of_line t last).slots.(line_slot last) <- pos;
    let freed = t.pre_slot.(pos) in
    t.pre_slot.(pos) <- t.pre_slot.(n);
    t.pre_slot.(n) <- freed
  end

let evict_random t =
  (* Pick a uniformly random dirty line in O(1) via the index.  This is
     the "arbitrary write-back order" of the paper. *)
  if t.ndirty > 0 then begin
    let lineno = t.dirty.(Rng.int t.rng t.ndirty) in
    (match t.event_hook with
    | Some f -> f (Ido_obs.Obs.Evict (lineno lsl line_shift))
    | None -> ());
    write_back t lineno;
    t.counters.evictions <- t.counters.evictions + 1
  end

(* Each event fires BEFORE its action takes effect, so a hook that
   raises leaves the persistence domain exactly as a power failure at
   that instant would.  The match sits at each site so that, with no
   hook, no event value is built.  Simulator-side channels ([poke],
   [flush_all]) never fire it. *)
let[@inline] store t addr v =
  check t addr;
  (match t.event_hook with
  | Some f -> f (Ido_obs.Obs.Store addr)
  | None -> ());
  t.counters.stores <- t.counters.stores + 1;
  let p = page_of t addr in
  let p =
    if p.slots.(slot_in_page addr) >= 0 then p
    else begin
      if t.ndirty >= t.cache_lines then evict_random t;
      let p = writable t addr in
      index_add t p (addr lsr line_shift);
      p
    end
  in
  set_word p.cur (byte_in_page addr) v

let store_int t addr v = store t addr (Int64.of_int v)
let load_into t addr dst off = Bytes.set_int64_ne dst off (load t addr)
let store_from t addr src off = store t addr (Bytes.get_int64_ne src off)

let[@inline] poke t addr v =
  check t addr;
  let p = writable t addr in
  set_word p.cur (byte_in_page addr) v;
  let pos = p.slots.(slot_in_page addr) in
  if pos >= 0 then set_word t.pre (pre_byte t pos addr) v

(* Copy words [lo, hi] of page [p] from [src], word [lo] at byte
   [src_off], into the pre-images of the range's dirty lines: the
   persisted half of a [poke] over the range, found through the page's
   positions rather than by scanning the index. *)
let patch_pre t p lo hi src src_off =
  for l = lo lsr line_shift to hi lsr line_shift do
    let pos = p.slots.(line_slot l) in
    if pos >= 0 then begin
      let a = Stdlib.max lo (l lsl line_shift) in
      let b = Stdlib.min hi ((l lsl line_shift) lor (words_per_line - 1)) in
      Bytes.blit src (src_off + ((a - lo) lsl 3)) t.pre (pre_byte t pos a)
        ((b - a + 1) lsl 3)
    end
  done

let poke_int t addr v = poke t addr (Int64.of_int v)

(* [poke] of every whole word of [src], page by page, after one bounds
   check of the whole range. *)
let poke_bytes t addr src =
  let n = Bytes.length src / 8 in
  if n > 0 then begin
    check t addr;
    if addr + n > t.size then out_of_bounds t.size;
    let a = ref addr in
    while !a < addr + n do
      let len =
        Stdlib.min (addr + n - !a) (page_words - (!a land (page_words - 1)))
      in
      let p = writable t !a in
      Bytes.blit src ((!a - addr) * 8) p.cur (byte_in_page !a) (len * 8);
      patch_pre t p !a (!a + len - 1) src ((!a - addr) * 8);
      a := !a + len
    done
  end

(* [poke a 0L] over [addr, addr + n), page by page.  A page still
   sharing [zero_page] already reads 0 and has no dirty line, so it is
   skipped rather than materialised; a materialised page has the range
   filled in place, in [cur] and in its dirty lines' pre-images (copied
   from [zero_page]).  The bounds are checked before anything is
   written. *)
let zero t addr n =
  if n > 0 then begin
    check t addr;
    if addr + n > t.size then out_of_bounds t.size;
    let last = addr + n - 1 in
    let a = ref addr in
    while !a <= last do
      let hi = Stdlib.min last (!a lor (page_words - 1)) in
      let p = page_of t !a in
      if p != zero_page then begin
        let o = byte_in_page !a in
        Bytes.fill p.cur o ((hi - !a + 1) * 8) '\000';
        patch_pre t p !a hi zero_page.cur o
      end;
      a := hi + 1
    done
  end

let clwb t addr =
  check t addr;
  t.counters.clwbs <- t.counters.clwbs + 1;
  if (page_of t addr).slots.(slot_in_page addr) < 0 then false
  else begin
    (match t.event_hook with
    | Some f -> f (Ido_obs.Obs.Flush addr)
    | None -> ());
    write_back t (addr lsr line_shift);
    t.counters.writebacks <- t.counters.writebacks + 1;
    t.pending <- t.pending + 1;
    true
  end

let fence t =
  (match t.event_hook with
  | Some f -> f (Ido_obs.Obs.Fence t.pending)
  | None -> ());
  t.counters.fences <- t.counters.fences + 1;
  let pending = t.pending in
  t.pending <- 0;
  pending

let pending_flushes t = t.pending
let drain_pending t = t.pending <- 0

let persisted t addr =
  check t addr;
  let p = page_of t addr in
  let pos = p.slots.(slot_in_page addr) in
  if pos < 0 then get_word p.cur (byte_in_page addr)
  else get_word t.pre (pre_byte t pos addr)

let is_dirty t addr =
  check t addr;
  (page_of t addr).slots.(slot_in_page addr) >= 0

let dirty_lines t = t.ndirty
let dirty_linenos t = Array.to_list (Array.sub t.dirty 0 t.ndirty)

(* Forget every dirty line without persisting it: its newest values
   revert to the persisted ones, copied back from the pool. *)
let crash t =
  for i = 0 to t.ndirty - 1 do
    let lineno = t.dirty.(i) in
    let p = page_of_line t lineno in
    Bytes.unsafe_blit t.pre (t.pre_slot.(i) * line_bytes) p.cur
      (line_byte lineno) line_bytes;
    p.slots.(line_slot lineno) <- -1
  done;
  t.ndirty <- 0;
  t.pending <- 0

(* Every line is written back: its newest words become its persisted
   ones where they stand, so marking the lines clean (in dirty-index
   order) and dropping the index wholesale is the whole write-back.
   The same empties the overlay for [reset] and [restore_crashed],
   which overwrite the words afterwards. *)
let flush_all t =
  for i = 0 to t.ndirty - 1 do
    let lineno = t.dirty.(i) in
    (page_of_line t lineno).slots.(line_slot lineno) <- -1
  done;
  t.ndirty <- 0;
  t.pending <- 0

let clear_page p = Bytes.fill p.cur 0 page_bytes '\000'

(* Return the arena to its just-created state (same size, same
   cache-line budget, hook preserved) without reallocating: only the
   materialised pages hold anything to zero, and they stay in the table
   for the next run to write into. *)
let reset ~rng t =
  flush_all t;
  Vec.iter (fun i -> clear_page t.pages.(i)) t.touched;
  Rng.assign ~into:t.rng rng;
  let c = t.counters in
  c.loads <- 0;
  c.stores <- 0;
  c.clwbs <- 0;
  c.writebacks <- 0;
  c.fences <- 0;
  c.evictions <- 0

(* A crash image holds what a power failure would leave: the surviving
   words of every materialised page (pages never written read 0 in any
   memory), plus the generator and counters, which a crash keeps. *)
type image = {
  im_size : int;
  im_pages : int array;  (* materialised page numbers, ascending *)
  im_data : Bytes.t;  (* their surviving words, [page_bytes] each *)
  im_rng : Rng.t;
  im_counters : counters;
}

let crash_image ?(cache_survives = false) t =
  let pages = Array.of_list (Vec.to_list t.touched) in
  Array.sort Int.compare pages;
  let data = Bytes.create (Array.length pages * page_bytes) in
  Array.iteri
    (fun j i ->
      let p = t.pages.(i) in
      let o = j * page_bytes in
      Bytes.unsafe_blit p.cur 0 data o page_bytes;
      (* With a persistent cache the newest value of every word
         survives; without one a dirty line leaves its pre-image. *)
      if not cache_survives then
        Array.iteri
          (fun s pos ->
            if pos >= 0 then
              Bytes.unsafe_blit t.pre (t.pre_slot.(pos) * line_bytes) data
                (o + (s * line_bytes)) line_bytes)
          p.slots)
    pages;
  { im_size = t.size; im_pages = pages; im_data = data; im_rng = Rng.copy t.rng;
    im_counters = { t.counters with loads = t.counters.loads } }

let rec mem_sorted a x lo hi =
  lo < hi
  &&
  let mid = (lo + hi) lsr 1 in
  let y = a.(mid) in
  if y = x then true else if y < x then mem_sorted a x (mid + 1) hi
  else mem_sorted a x lo mid

(* Empty the overlay, then write the image's pages into [cur], so every
   line reads its surviving value.  A page this memory materialised that
   the image lacks is zeroed; one the image has that this memory lacks
   is materialised. *)
let restore_crashed t im =
  if im.im_size <> t.size then
    invalid_arg
      (Printf.sprintf "Pmem.restore_crashed: image of %d words, memory of %d"
         im.im_size t.size);
  flush_all t;
  let n = Array.length im.im_pages in
  Vec.iter
    (fun i -> if not (mem_sorted im.im_pages i 0 n) then clear_page t.pages.(i))
    t.touched;
  Array.iteri
    (fun j i ->
      Bytes.unsafe_blit im.im_data (j * page_bytes)
        (writable t (i lsl page_shift)).cur 0 page_bytes)
    im.im_pages;
  Rng.assign ~into:t.rng im.im_rng;
  let c = t.counters and s = im.im_counters in
  c.loads <- s.loads;
  c.stores <- s.stores;
  c.clwbs <- s.clwbs;
  c.writebacks <- s.writebacks;
  c.fences <- s.fences;
  c.evictions <- s.evictions
