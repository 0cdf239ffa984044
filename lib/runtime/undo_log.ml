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
  let node = Lognode.push w region ~kind ~tid ~payload_words:(3 + cap) in
  Pwriter.store_int w (node + off_cap) cap;
  Pwriter.clwb w (node + off_cap);
  Pwriter.fence w;
  node

(* Hand a finished thread's arena to a fresh thread.  Truncating the
   record buffer is safe only at a quiescent point (no open FASE
   anywhere): the happens-before cascade in {!Atlas_recovery} can roll
   a *completed* FASE back only through a lock released at a later
   sequence number by a FASE that is itself rolled back, and every
   sequence number the recycled log could contain predates any FASE
   still to come.  {!Ido_vm.Vm.reap} enforces that discipline. *)
let rebind w node ~tid =
  Lognode.store_tid w node ~tid;
  Pwriter.store_int w (node + off_head) 0;
  Pwriter.store_int w (node + off_total) 0;
  Pwriter.clwb3 w (node + 1) (node + off_head) (node + off_total);
  Pwriter.fence w

let cap pm node = Pmem.load_int pm (node + off_cap)
let head pm node = Pmem.load_int pm (node + off_head)
let total pm node = Pmem.load_int pm (node + off_total)

let append_unfenced w node tag ~a ~b ~seq =
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
  Pwriter.clwb2 w base (base + 3);
  Pwriter.store_int w (node + off_head) ((h + record_words) mod c);
  Pwriter.store_int w (node + off_total) (total pm node + 1);
  Pwriter.clwb2 w (node + off_head) (node + off_total)

let append w node tag ~a ~b ~seq =
  append_unfenced w node tag ~a ~b ~seq;
  Pwriter.fence w

let log_write w node ~addr ~old ~seq =
  append w node Write ~a:(Int64.of_int addr) ~b:old ~seq

let records pm node =
  let c = cap pm node in
  let h = head pm node in
  let t = total pm node in
  let nrec = min t (c / record_words) in
  let start = if t * record_words <= c then 0 else h in
  List.init nrec (fun i ->
      let off = (start + (i * record_words)) mod c in
      let base = node + off_buf + off in
      {
        tag = tag_of_code (Pmem.load_int pm base);
        a = Pmem.load pm (base + 1);
        b = Pmem.load pm (base + 2);
        seq = Pmem.load_int pm (base + 3);
      })

let in_fase pm node =
  (* The log ends inside a FASE iff the last begin has no matching
     end.  Scan backward over the chronological record list. *)
  let rec last_state st = function
    | [] -> st
    | r :: rest ->
        let st =
          match r.tag with Fase_begin -> true | Fase_end -> false | _ -> st
        in
        last_state st rest
  in
  last_state false (records pm node)

let reset w node =
  Pwriter.store_int w (node + off_head) 0;
  Pwriter.store_int w (node + off_total) 0;
  Pwriter.clwb w (node + off_head);
  Pwriter.fence w
