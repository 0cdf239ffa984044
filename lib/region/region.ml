open Ido_nvm

let magic = 0x49444F21L (* "IDO!" *)

(* Header layout (word addresses). *)
let off_magic = 0
let off_dirty = 1
let off_bump = 2
let off_free_head = 3
let off_log_head = 4
let off_alloc_count = 5
let off_roots = 8
let root_slots = 16
let heap_base = off_roots + root_slots

(* Block layout: [header: payload size in words][payload...]; free
   blocks reuse payload word 0 as the next-free link. *)

type t = { pm : Pmem.t; dirty_at_open : bool }

let persist_word pm addr =
  ignore (Pmem.clwb pm addr);
  ignore (Pmem.fence pm)

let write_persist pm addr v =
  Pmem.store pm addr v;
  persist_word pm addr

let create pm =
  if Pmem.size pm <= heap_base + 8 then
    invalid_arg "Region.create: region too small";
  Pmem.store pm off_magic magic;
  Pmem.store pm off_dirty 0L;
  Pmem.store pm off_bump (Int64.of_int heap_base);
  Pmem.store pm off_free_head 0L;
  Pmem.store pm off_log_head 0L;
  Pmem.store pm off_alloc_count 0L;
  for i = 0 to root_slots - 1 do
    Pmem.store pm (off_roots + i) 0L
  done;
  Pmem.flush_all pm;
  { pm; dirty_at_open = false }

let open_existing pm =
  if Pmem.load pm off_magic <> magic then
    invalid_arg "Region.open_existing: no region header";
  let dirty = Pmem.load pm off_dirty <> 0L in
  { pm; dirty_at_open = dirty }

let was_dirty t = t.dirty_at_open

let mark_running t = write_persist t.pm off_dirty 1L
let mark_clean t = write_persist t.pm off_dirty 0L

let bump t = Int64.to_int (Pmem.load t.pm off_bump)

let set_bump t v = write_persist t.pm off_bump (Int64.of_int v)

let block_size t addr = Int64.to_int (Pmem.load t.pm (addr - 1))

(* First fit with splitting: a free block larger than the request by
   more than 2 words is split; the remainder stays on the free list. *)
let alloc t n =
  if n <= 0 then invalid_arg "Region.alloc: size must be positive";
  let pm = t.pm in
  let rec search prev cur =
    if cur = 0 then None
    else begin
      let size = block_size t cur in
      let next = Int64.to_int (Pmem.load pm cur) in
      if size >= n then Some (prev, cur, size, next) else search cur next
    end
  in
  let head = Int64.to_int (Pmem.load pm off_free_head) in
  let base =
    match search 0 head with
    | Some (prev, cur, size, next) ->
        if size > n + 2 then begin
          (* Split: the tail becomes a new free block. *)
          let tail_header = cur + n in
          let tail = tail_header + 1 in
          Pmem.store pm tail_header (Int64.of_int (size - n - 1));
          Pmem.store pm tail (Int64.of_int next);
          persist_word pm tail_header;
          persist_word pm tail;
          Pmem.store pm (cur - 1) (Int64.of_int n);
          persist_word pm (cur - 1);
          if prev = 0 then write_persist pm off_free_head (Int64.of_int tail)
          else write_persist pm prev (Int64.of_int tail)
        end
        else if prev = 0 then write_persist pm off_free_head (Int64.of_int next)
        else write_persist pm prev (Int64.of_int next);
        cur
    | None ->
        let b = bump t in
        let base = b + 1 in
        if base + n > Pmem.size pm then failwith "Region.alloc: out of memory";
        Pmem.store pm b (Int64.of_int n);
        persist_word pm b;
        set_bump t (base + n);
        base
  in
  (* Zero the payload so recovered code never sees stale bytes; direct
     initialisation, not simulated store traffic. *)
  Pmem.zero pm base n;
  let count = Pmem.load pm off_alloc_count in
  Pmem.store pm off_alloc_count (Int64.add count (Int64.of_int n));
  base

let free t addr =
  if addr <= heap_base then invalid_arg "Region.free: not a heap block";
  let pm = t.pm in
  let head = Pmem.load pm off_free_head in
  Pmem.store pm addr head;
  persist_word pm addr;
  write_persist pm off_free_head (Int64.of_int addr)

let get_root t i =
  if i < 0 || i >= root_slots then invalid_arg "Region.get_root: bad slot";
  Pmem.load t.pm (off_roots + i)

let set_root t i v =
  if i < 0 || i >= root_slots then invalid_arg "Region.set_root: bad slot";
  write_persist t.pm (off_roots + i) v

let log_head t = Pmem.load t.pm off_log_head
let set_log_head t v = write_persist t.pm off_log_head v

let words_allocated t = Int64.to_int (Pmem.load t.pm off_alloc_count)
