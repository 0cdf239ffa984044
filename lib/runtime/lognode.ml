open Ido_nvm
open Ido_region

type overflow = { scheme : string; tid : int; log : string; capacity : int }

exception Log_overflow of overflow

let overflow ~scheme ~tid ~log ~capacity =
  raise (Log_overflow { scheme; tid; log; capacity })

let kind_ido = 1
let kind_justdo = 2
let kind_atlas = 3
let kind_redo = 4
let kind_nvml = 5
let kind_page = 6

let payload_base = 3

let push w region ~kind ~tid ~payload_words ~size_at ~size =
  let r = Region.alloc region (payload_base + payload_words) in
  let head = Region.log_head region in
  Pwriter.store w r head;
  Pwriter.store_int w (r + 1) tid;
  Pwriter.store_int w (r + 2) kind;
  Pwriter.clwb w r;
  Pwriter.fence w;
  (* Region.set_log_head persists through the raw pmem; charge the
     writer for the equivalent store + flush + fence. *)
  Region.set_log_head region (Int64.of_int r);
  Pwriter.add_cost w
    ((Pwriter.latency w).Latency.mem
    + (Pwriter.latency w).Latency.clwb_issue
    + Latency.fence_cost (Pwriter.latency w) ~pending:1);
  Pwriter.store_int w (r + size_at) size;
  Pwriter.clwb w (r + size_at);
  Pwriter.fence w;
  r

let rebind w node ~tid ~clear =
  Pwriter.store_int w (node + 1) tid;
  List.iter (fun off -> Pwriter.store_int w (node + off) 0) clear;
  Pwriter.clwb_offsets w ~base:node (1 :: clear);
  Pwriter.fence w

let next pm addr = Pmem.load_int pm addr
let tid pm addr = Pmem.load_int pm (addr + 1)
let kind pm addr = Pmem.load_int pm (addr + 2)

let iter pm region f =
  let rec go a = if a <> 0 then begin f a; go (next pm a) end in
  go (Int64.to_int (Region.log_head region))
