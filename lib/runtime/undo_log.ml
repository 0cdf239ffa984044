open Ido_nvm

type tag = Fase_begin | Write | Acquire | Release | Fase_end

let tag_code = function
  | Fase_begin -> 1
  | Write -> 2
  | Acquire -> 3
  | Release -> 4
  | Fase_end -> 5

let tag_of_code = function
  | 1 -> Fase_begin
  | 2 -> Write
  | 3 -> Acquire
  | 4 -> Release
  | 5 -> Fase_end
  | c -> failwith (Printf.sprintf "Undo_log: bad tag %d" c)

type record = { tag : tag; a : int64; b : int64; seq : int }

let record_words = 4

let off_cap = 3
let off_head = 4
let off_total = 5
let off_buf = 6

let create w region ~kind ~tid ~cap_records =
  let cap = cap_records * record_words in
  Lognode.push w region ~kind ~tid ~payload_words:(3 + cap) ~size_at:off_cap ~size:cap

(* Hand a finished thread's arena to a fresh thread.  Truncating the
   record buffer is safe only at a quiescent point (no open FASE
   anywhere): the happens-before cascade in {!Atlas_recovery} can roll
   a *completed* FASE back only through a lock released at a later
   sequence number by a FASE that is itself rolled back, and every
   sequence number the recycled log could contain predates any FASE
   still to come.  {!Ido_vm.Vm.reap} enforces that discipline. *)
let rebind w node ~tid = Lognode.rebind w node ~tid ~clear:[ off_head; off_total ]

let cap pm node = Pmem.load_int pm (node + off_cap)
let head pm node = Pmem.load_int pm (node + off_head)
let total pm node = Pmem.load_int pm (node + off_total)

let append_unfenced ?(write_ahead = true) w node tag ~a ~b ~seq =
  let pm = w.Pwriter.pm in
  let c = cap pm node in
  let h = head pm node in
  let base = node + off_buf + h in
  Pwriter.store_int w base (tag_code tag);
  Pwriter.store w (base + 1) a;
  Pwriter.store w (base + 2) b;
  Pwriter.store_int w (base + 3) seq;
  (* Write-ahead order: the record's words must be durable before head
     and total publish it, or a crash between the write-backs (or an
     eviction of the counter line) makes recovery read an unwritten
     record.  head and total usually share a line; when they straddle
     one, both must reach the persistence domain or recovery sees a
     truncated log. *)
  if write_ahead then Pwriter.clwb2 w base (base + 3);
  Pwriter.store_int w (node + off_head) ((h + record_words) mod c);
  Pwriter.store_int w (node + off_total) (total pm node + 1);
  if not write_ahead then Pwriter.clwb2 w base (base + 3);
  Pwriter.clwb2 w (node + off_head) (node + off_total)

let append ?write_ahead w node tag ~a ~b ~seq =
  append_unfenced ?write_ahead w node tag ~a ~b ~seq;
  Pwriter.fence w

let log_write ?write_ahead w node ~addr ~old ~seq =
  append ?write_ahead w node Write ~a:(Int64.of_int addr) ~b:old ~seq

(* A streaming read of the ring, oldest record first.  Opening it loads
   cap, head and total; each [next] loads the record's four words, the
   [a] and [b] words into [ab] exactly as stored. *)
type reader = {
  pm : Pmem.t;
  base : Pmem.addr;  (* the record buffer *)
  c : int;
  mutable off : int;  (* ring offset of the next record *)
  mutable left : int;
  ab : Bytes.t;
  mutable seq : int;
}

let reader pm node =
  let c = cap pm node in
  let h = head pm node in
  let t = total pm node in
  {
    pm;
    base = node + off_buf;
    c;
    off = (if t * record_words <= c then 0 else h);
    left = min t (c / record_words);
    ab = Bytes.create 16;
    seq = 0;
  }

let remaining r = r.left
let ab r = r.ab
let seq r = r.seq

let next r =
  if r.left = 0 then invalid_arg "Undo_log.next: no record left";
  let a = r.base + r.off in
  let tag = tag_of_code (Pmem.load_int r.pm a) in
  Pmem.load_into r.pm (a + 1) r.ab 0;
  Pmem.load_into r.pm (a + 2) r.ab 8;
  r.seq <- Pmem.load_int r.pm (a + 3);
  r.off <- (r.off + record_words) mod r.c;
  r.left <- r.left - 1;
  tag

let records pm node =
  let r = reader pm node in
  let acc = ref [] in
  while r.left > 0 do
    let tag = next r in
    acc :=
      { tag; a = Bytes.get_int64_ne r.ab 0; b = Bytes.get_int64_ne r.ab 8;
        seq = r.seq }
      :: !acc
  done;
  List.rev !acc

(* The log ends inside a FASE iff its last begin has no matching end. *)
let in_fase pm node =
  let r = reader pm node in
  let open_ = ref false in
  while r.left > 0 do
    match next r with
    | Fase_begin -> open_ := true
    | Fase_end -> open_ := false
    | Write | Acquire | Release -> ()
  done;
  !open_

let cell _ node a =
  let o = a - node in
  if o = off_head || o = off_total then "head" else if o >= off_buf then "rec" else "header"

let reset w node =
  Pwriter.store_int w (node + off_head) 0;
  Pwriter.store_int w (node + off_total) 0;
  Pwriter.clwb w (node + off_head);
  Pwriter.fence w
