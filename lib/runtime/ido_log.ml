open Ido_nvm

let lock_slots = 16

(* Payload layout, relative to the node address. *)
let off_pc = 3
let off_bitmap = 4
let off_locks = 5
let off_nregs = off_locks + lock_slots
let off_intrf = off_nregs + 1

let create w region ~tid ~nregs =
  Lognode.push w region ~kind:Lognode.kind_ido ~tid
    ~payload_words:(1 + 1 + lock_slots + 1 + nregs + 2) ~size_at:off_nregs ~size:nregs

(* Hand a finished thread's arena to a fresh thread: a Done owner left
   recovery_pc = 0 and an empty lock array, but both are re-cleared so
   the recycled node is clean by construction, not by trust. *)
let rebind w node ~tid = Lognode.rebind w node ~tid ~clear:[ off_pc; off_bitmap ]

(* recovery_pc and lock_array entries carry a boundary epoch in their
   high bits (one atomic 8-byte word each).  Recovery re-acquires only
   locks stamped with an epoch older than the pc's: locks taken after
   the last persisted boundary protect a region that performed no
   stores (else the boundary would have persisted), so resumption can
   safely re-acquire them in program order — preserving lock-ordering
   disciplines such as hand-over-hand.

   The words are handled as [int]s: every one was stored from an [int],
   so its top two bits agree, and the arithmetic shift below reads the
   same 24 high bits as a logical shift of the 64-bit word. *)
let epoch_mask = 0xFFFFF
let pack ~epoch v = ((epoch land epoch_mask) lsl 40) lor v
let unpacked_value w = w land 0xFF_FFFF_FFFF
let unpacked_epoch w = (w asr 40) land 0xFF_FFFF

let set_recovery_pc w node ~epoch pc =
  Pwriter.store_int w (node + off_pc) (if pc = 0 then 0 else pack ~epoch pc);
  Pwriter.clwb w (node + off_pc)

let recovery_pc pm node = unpacked_value (Pmem.load_int pm (node + off_pc))
let recovery_epoch pm node = unpacked_epoch (Pmem.load_int pm (node + off_pc))

(* Write back the intRF slots of registers [rs], once per line; or, as
   the ablation, once per register, as a naive implementation without
   Sec. IV-B's persist coalescing would issue. *)
let rec clwb_regs w node = function
  | [] -> ()
  | r :: rest ->
      Pwriter.clwb w (node + off_intrf + r);
      clwb_regs w node rest

let write_back_regs w node ~coalesce rs =
  if coalesce then Pwriter.clwb_offsets w ~base:(node + off_intrf) rs
  else clwb_regs w node rs

let write_out_regs ?(coalesce = true) w node regs =
  List.iter (fun (r, v) -> Pwriter.store w (node + off_intrf + r) v) regs;
  write_back_regs w node ~coalesce (List.map fst regs)

let rec store_regs w node regs = function
  | [] -> ()
  | r :: rest ->
      Pwriter.store_from w (node + off_intrf + r) regs (8 * r);
      store_regs w node regs rest

let write_regs w node ~coalesce regs rs =
  store_regs w node regs rs;
  write_back_regs w node ~coalesce rs

(* Simulator-side stack metadata.  Real iDO keeps the stack pointer in
   intRF; our interpreter frames carry base and sp separately, so they
   are stashed after intRF, written back without charging cost. *)
let sim_off pm node = off_intrf + Pmem.load_int pm (node + off_nregs)

let cell pm node a =
  let o = a - node in
  if o = off_pc then "pc"
  else if o >= off_bitmap && o < off_nregs then "lockrec"
  else if o < off_intrf then "header"
  else if o < sim_off pm node then "outlog"
  else "stack"

let read_reg pm node r = Pmem.load pm (node + off_intrf + r)

let read_all_regs pm node =
  let nregs = Pmem.load_int pm (node + off_nregs) in
  Array.init nregs (fun r -> read_reg pm node r)

let bitmap pm node = Pmem.load_int pm (node + off_bitmap)

let rec free_slot bits i =
  if i >= lock_slots || bits land (1 lsl i) = 0 then i else free_slot bits (i + 1)

let record_acquire w node ~holder ~epoch =
  let pm = w.Pwriter.pm in
  let bits = bitmap pm node in
  let slot = free_slot bits 0 in
  if slot >= lock_slots then
    Lognode.overflow ~scheme:"ido" ~tid:(Lognode.tid pm node)
      ~log:"lock_array" ~capacity:lock_slots;
  Pwriter.store_int w (node + off_locks + slot) (pack ~epoch holder);
  Pwriter.store_int w (node + off_bitmap) (bits lor (1 lsl slot));
  Pwriter.clwb2 w (node + off_locks + slot) (node + off_bitmap)

(* The live slot holding [holder], or [lock_slots] when none does. *)
let rec held_slot pm node bits holder i =
  if
    i >= lock_slots
    || bits land (1 lsl i) <> 0
       && unpacked_value (Pmem.load_int pm (node + off_locks + i)) = holder
  then i
  else held_slot pm node bits holder (i + 1)

(* Tolerates an absent record: a resumed region may re-execute the
   release after the crash already cleared it (Sec. III-B's benign
   windows). *)
let record_release w node ~holder =
  let pm = w.Pwriter.pm in
  let bits = bitmap pm node in
  let slot = held_slot pm node bits holder 0 in
  if slot < lock_slots then begin
    Pwriter.store_int w (node + off_locks + slot) 0;
    Pwriter.store_int w (node + off_bitmap) (bits land lnot (1 lsl slot));
    Pwriter.clwb2 w (node + off_locks + slot) (node + off_bitmap)
  end

let held_locks pm node =
  let bits = bitmap pm node in
  let rec go i acc =
    if i >= lock_slots then List.rev acc
    else if bits land (1 lsl i) <> 0 then
      let w = Pmem.load_int pm (node + off_locks + i) in
      go (i + 1) ((unpacked_value w, unpacked_epoch w) :: acc)
    else go (i + 1) acc
  in
  go 0 []


let set_sim_stack pm node ~base ~sp =
  let o = node + sim_off pm node in
  Pmem.store_int pm o base;
  Pmem.store_int pm (o + 1) sp;
  ignore (Pmem.clwb pm o);
  ignore (Pmem.clwb pm (o + 1));
  Pmem.drain_pending pm

let sim_stack pm node =
  let o = node + sim_off pm node in
  (Pmem.load_int pm o, Pmem.load_int pm (o + 1))
