open Ido_nvm

type status = Idle | Filling | Committed

let status_code = function Idle -> 0 | Filling -> 1 | Committed -> 2

let status_of_code = function
  | 0 -> Idle
  | 1 -> Filling
  | 2 -> Committed
  | c -> failwith (Printf.sprintf "Redo_log: bad status %d" c)

let off_cap = 3
let off_status = 4
let off_count = 5
let off_commits = 6
let off_buf = 7

let create w region ~tid ~cap_entries =
  Lognode.push w region ~kind:Lognode.kind_redo ~tid
    ~payload_words:(4 + (2 * cap_entries)) ~size_at:off_cap ~size:cap_entries

(* Hand a finished thread's arena to a fresh thread: back to Idle with
   an empty write set, so recovery can neither replay nor discard the
   previous owner's entries under the new tid. *)
let rebind w node ~tid = Lognode.rebind w node ~tid ~clear:[ off_status; off_count ]

let count pm node = Pmem.load_int pm (node + off_count)

let begin_txn w node =
  Pwriter.store_int w (node + off_count) 0;
  Pwriter.store_int w (node + off_status) 1

let append w node ~addr ~value =
  let pm = w.Pwriter.pm in
  let c = count pm node in
  let cap = Pmem.load_int pm (node + off_cap) in
  if c >= cap then
    Lognode.overflow ~scheme:"mnemosyne" ~tid:(Lognode.tid pm node)
      ~log:"write_set" ~capacity:cap;
  let base = node + off_buf + (2 * c) in
  Pwriter.store_int w base addr;
  Pwriter.store w (base + 1) value;
  Pwriter.store_int w (node + off_count) (c + 1)

let entry pm node i =
  let base = node + off_buf + (2 * i) in
  (Pmem.load_int pm base, Pmem.load pm (base + 1))

(* The count word's line, then each line of the [c] entries in order:
   [clwb_lines] of [count; entry words...], whose entry words ascend
   and start past the count word. *)
let persist_entries w node =
  let c = count w.Pwriter.pm node in
  let wpl = Pmem.words_per_line in
  let first = (node + off_count) / wpl in
  Pwriter.clwb w (first * wpl);
  if c > 0 then
    for line = (node + off_buf) / wpl to (node + off_buf + (2 * c) - 1) / wpl do
      if line <> first then Pwriter.clwb w (line * wpl)
    done

let set_status w node st = Pwriter.store_int w (node + off_status) (status_code st)

let persist_status w node st =
  set_status w node st;
  if st = Committed then begin
    let pm = Pwriter.pmem w in
    Pwriter.store w (node + off_commits)
      (Int64.add (Pmem.load pm (node + off_commits)) 1L)
  end;
  Pwriter.clwb w (node + off_status);
  Pwriter.fence w

let cell _ node a =
  let o = a - node in
  if o = off_status then "status"
  else if o = off_commits then "commits"
  else if o = off_count || o >= off_buf then "redo"
  else "header"

let status pm node = status_of_code (Pmem.load_int pm (node + off_status))

let apply w node =
  let pm = Pwriter.pmem w in
  let c = count pm node in
  for i = 0 to c - 1 do
    let addr, value = entry pm node i in
    Pwriter.store w addr value
  done
