open Ido_nvm

let page_words = 64

let page_of addr = addr / page_words

(* Entry: [page index][dirty-word bitmask][64-word copy].  Only words
   marked dirty are applied at commit — NVThreads commits diffs, so
   concurrent writers of distinct words on one page do not clobber
   each other. *)
let entry_words = 2 + page_words

(* Payload: [cap][status][count][fase_seq][entries...]
   status: 0 idle, 1 filling, 2 committed. *)
let off_cap = 3
let off_status = 4
let off_count = 5
let off_seq = 6
let off_buf = 7

let create w region ~tid ~cap_pages =
  Lognode.push w region ~kind:Lognode.kind_page ~tid
    ~payload_words:(4 + (entry_words * cap_pages)) ~size_at:off_cap ~size:cap_pages

(* Hand a finished thread's arena to a fresh thread: idle status and an
   empty page set, so recovery neither applies nor discards the
   previous owner's copies under the new tid. *)
let rebind w node ~tid = Lognode.rebind w node ~tid ~clear:[ off_status; off_count ]

let count pm node = Int64.to_int (Pmem.load pm (node + off_count))

let begin_fase w node ~seq =
  Pwriter.store w (node + off_count) 0L;
  Pwriter.store w (node + off_seq) (Int64.of_int seq);
  Pwriter.store w (node + off_status) 1L;
  Pwriter.clwb w (node + off_status);
  Pwriter.fence w

let entry_base node i = node + off_buf + (i * entry_words)

let log_page w node ~page =
  let pm = Pwriter.pmem w in
  let c = count pm node in
  let cap = Int64.to_int (Pmem.load pm (node + off_cap)) in
  if c >= cap then
    Lognode.overflow ~scheme:"nvthreads" ~tid:(Lognode.tid pm node)
      ~log:"page_set" ~capacity:cap;
  let base = entry_base node c in
  Pwriter.store w base (Int64.of_int page);
  Pwriter.store w (base + 1) 0L;
  let page_base = page * page_words in
  let limit = min page_words (Pmem.size pm - page_base) in
  for i = 0 to limit - 1 do
    let v = Pwriter.load w (page_base + i) in
    Pwriter.store w (base + 2 + i) v
  done;
  Pwriter.store w (node + off_count) (Int64.of_int (c + 1));
  c

let copy_word_addr node i ~off = entry_base node i + 2 + off

let mark_dirty w node i ~off =
  let pm = Pwriter.pmem w in
  let base = entry_base node i in
  let mask = Pmem.load pm (base + 1) in
  Pwriter.store w (base + 1) (Int64.logor mask (Int64.shift_left 1L off))

let persist_copies w node =
  let pm = Pwriter.pmem w in
  let c = count pm node in
  let addrs = ref [ node + off_count ] in
  for i = 0 to c - 1 do
    let base = entry_base node i in
    for j = 0 to entry_words - 1 do
      addrs := (base + j) :: !addrs
    done
  done;
  Pwriter.clwb_lines w !addrs;
  Pwriter.fence w

let set_status w node v =
  Pwriter.store w (node + off_status) v;
  Pwriter.clwb w (node + off_status);
  Pwriter.fence w

let cell _ node a =
  let o = a - node in
  if o = off_status then "pstatus" else if o >= off_count then "pages" else "header"

let status_committed pm node = Pmem.load pm (node + off_status) = 2L

let active pm node = Pmem.load pm (node + off_status) = 1L

let apply w node =
  let pm = Pwriter.pmem w in
  let c = count pm node in
  let master_lines = ref [] in
  for i = 0 to c - 1 do
    let base = entry_base node i in
    let page = Int64.to_int (Pmem.load pm base) in
    let mask = Pmem.load pm (base + 1) in
    let page_base = page * page_words in
    let limit = min page_words (Pmem.size pm - page_base) in
    for j = 0 to limit - 1 do
      if Int64.logand mask (Int64.shift_left 1L j) <> 0L then begin
        Pwriter.store w (page_base + j) (Pmem.load pm (base + 2 + j));
        master_lines := (page_base + j) :: !master_lines
      end
    done
  done;
  Pwriter.clwb_lines w !master_lines;
  Pwriter.fence w;
  set_status w node 0L;
  c

let commit w node =
  persist_copies w node;
  set_status w node 2L;
  ignore (apply w node)

let discard w node =
  Pwriter.store w (node + off_count) 0L;
  set_status w node 0L
