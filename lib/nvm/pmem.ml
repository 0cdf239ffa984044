open Ido_util

type addr = int

let words_per_line = 8

(* The persistence domain is paged.  A page is 512 words (4 KiB, 64
   lines) and holds both its persisted words and the dirty-line slots
   of its 64 lines, so a read is two array indexings with no hashing
   and no allocation. *)
let line_shift = 3
let page_shift = 9
let page_words = 1 lsl page_shift
let lines_per_page = page_words / words_per_line

type counters = {
  mutable loads : int;
  mutable stores : int;
  mutable clwbs : int;
  mutable writebacks : int;
  mutable fences : int;
  mutable evictions : int;
}

(* A dirty line knows its own number, its page and its slot in
   [dirty_index], so the write-back path touches no table at all. *)
type line = {
  lineno : int;
  words : int64 array;
  page : page;
  mutable slot : int;
}

and page = {
  persisted : int64 array;  (* [page_words] words *)
  lines : line array;  (* [lines_per_page] slots, [clean] unless dirty *)
}

(* The sentinel filling every clean slot.  It is never in a dirty
   index, so nothing writes through it. *)
let rec clean = { lineno = -1; words = [||]; page = no_page; slot = -1 }
and no_page = { persisted = [||]; lines = [||] }

(* Every page table entry starts here, shared by all memories: reads
   see zeros, and the first write to a page gives it a private copy
   ([writable]).  Nothing ever writes into it. *)
let zero_page =
  { persisted = Array.make page_words 0L; lines = Array.make lines_per_page clean }

type t = {
  size : int;
  pages : page array;
  touched : page Vec.t;  (* the pages [writable] materialised *)
  dirty_index : line Vec.t;  (* the dirty lines, in insertion order *)
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
    dirty_index = Vec.create ();
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
let word_in_page addr = addr land (page_words - 1)
let slot_in_page addr = (addr lsr line_shift) land (lines_per_page - 1)
let offset_of addr = addr land (words_per_line - 1)
let line_base (l : line) = l.lineno lsl line_shift

(* The page holding [addr], materialised on its first write. *)
let writable t addr =
  let p = page_of t addr in
  if p != zero_page then p
  else begin
    let p =
      { persisted = Array.make page_words 0L;
        lines = Array.make lines_per_page clean }
    in
    t.pages.(addr lsr page_shift) <- p;
    Vec.push t.touched p;
    p
  end

let load t addr =
  check t addr;
  t.counters.loads <- t.counters.loads + 1;
  let p = page_of t addr in
  let l = p.lines.(slot_in_page addr) in
  if l == clean then p.persisted.(word_in_page addr)
  else l.words.(offset_of addr)

(* The dirty-line index lists the dirty lines in a flat vector so a
   uniformly random one is one [Rng.int] away; removal swaps the last
   slot in (order inside the vector is irrelevant — the victim choice
   is random anyway). *)
let index_add t (l : line) =
  l.slot <- Vec.length t.dirty_index;
  Vec.push t.dirty_index l

let index_remove t (l : line) =
  let last = Vec.pop t.dirty_index in
  if last != l then begin
    Vec.set t.dirty_index l.slot last;
    last.slot <- l.slot
  end

(* Copy a dirty line's words into the persistence domain and mark the
   line clean in its (already materialised) page. *)
let persist_words (l : line) =
  let base = line_base l in
  Array.blit l.words 0 l.page.persisted (word_in_page base) words_per_line;
  l.page.lines.(slot_in_page base) <- clean

let write_back t (l : line) =
  persist_words l;
  index_remove t l

let evict_random t =
  (* Pick a uniformly random dirty line in O(1) via the index.  This is
     the "arbitrary write-back order" of the paper. *)
  let n = Vec.length t.dirty_index in
  if n > 0 then begin
    let l = Vec.get t.dirty_index (Rng.int t.rng n) in
    (match t.event_hook with
    | Some f -> f (Ido_obs.Obs.Evict (line_base l))
    | None -> ());
    write_back t l;
    t.counters.evictions <- t.counters.evictions + 1
  end

let dirty_line t addr =
  let l = (page_of t addr).lines.(slot_in_page addr) in
  if l != clean then l.words
  else begin
    if Vec.length t.dirty_index >= t.cache_lines then evict_random t;
    let p = writable t addr in
    let lineno = addr lsr line_shift in
    let words =
      Array.sub p.persisted (word_in_page (lineno lsl line_shift)) words_per_line
    in
    let l = { lineno; words; page = p; slot = 0 } in
    p.lines.(slot_in_page addr) <- l;
    index_add t l;
    words
  end

(* Each event fires BEFORE its action takes effect, so a hook that
   raises leaves the persistence domain exactly as a power failure at
   that instant would.  The match sits at each site so that, with no
   hook, no event value is built.  Simulator-side channels ([poke],
   [flush_all]) never fire it. *)
let store t addr v =
  check t addr;
  (match t.event_hook with
  | Some f -> f (Ido_obs.Obs.Store addr)
  | None -> ());
  t.counters.stores <- t.counters.stores + 1;
  let words = dirty_line t addr in
  words.(offset_of addr) <- v

let poke t addr v =
  check t addr;
  let p = writable t addr in
  p.persisted.(word_in_page addr) <- v;
  let l = p.lines.(slot_in_page addr) in
  if l != clean then l.words.(offset_of addr) <- v

(* [poke a 0L] over [addr, addr + n), page by page.  A page still
   sharing [zero_page] already reads 0 and has no dirty line, so it is
   skipped rather than materialised; a materialised page has its words
   and any dirty lines of the range filled in place.  The bounds are
   checked before anything is written. *)
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
        Array.fill p.persisted (word_in_page !a) (hi - !a + 1) 0L;
        for s = slot_in_page !a to slot_in_page hi do
          let l = p.lines.(s) in
          if l != clean then begin
            let base = line_base l in
            let lo = Stdlib.max !a base in
            let up = Stdlib.min hi (base + words_per_line - 1) in
            Array.fill l.words (lo - base) (up - lo + 1) 0L
          end
        done
      end;
      a := hi + 1
    done
  end

let clwb t addr =
  check t addr;
  t.counters.clwbs <- t.counters.clwbs + 1;
  let l = (page_of t addr).lines.(slot_in_page addr) in
  if l == clean then false
  else begin
    (match t.event_hook with
    | Some f -> f (Ido_obs.Obs.Flush addr)
    | None -> ());
    write_back t l;
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
  (page_of t addr).persisted.(word_in_page addr)

let is_dirty t addr =
  check t addr;
  (page_of t addr).lines.(slot_in_page addr) != clean

let dirty_lines t = Vec.length t.dirty_index

let dirty_linenos t =
  List.map (fun (l : line) -> l.lineno) (Vec.to_list t.dirty_index)

(* Forget every dirty line without persisting it. *)
let drop_overlay t =
  Vec.iter
    (fun (l : line) -> l.page.lines.(slot_in_page (line_base l)) <- clean)
    t.dirty_index

let crash t =
  drop_overlay t;
  Vec.clear t.dirty_index;
  t.pending <- 0

(* Every line is written back, so skip per-line index maintenance:
   persist in dirty-index (insertion) order — deterministic, no
   intermediate list — then drop the index wholesale. *)
let flush_all t =
  Vec.iter persist_words t.dirty_index;
  Vec.truncate t.dirty_index;
  t.pending <- 0

(* Return the arena to its just-created state (same size, same
   cache-line budget, hook preserved) without reallocating: only the
   materialised pages hold anything to zero, and they stay in the table
   for the next run to write into. *)
let reset ~rng t =
  drop_overlay t;
  Vec.truncate t.dirty_index;
  Vec.iter (fun p -> Array.fill p.persisted 0 page_words 0L) t.touched;
  t.pending <- 0;
  Rng.assign ~into:t.rng rng;
  let c = t.counters in
  c.loads <- 0;
  c.stores <- 0;
  c.clwbs <- 0;
  c.writebacks <- 0;
  c.fences <- 0;
  c.evictions <- 0
