open Ido_nvm

let lock_slots = Ido_log.lock_slots

let off_valid = 3
let off_pc = 4
let off_addr = 5
let off_val = 6
let off_bitmap = 7
let off_intent = 8
let off_locks = 9
let off_nregs = off_locks + lock_slots
let off_regs = off_nregs + 1

let create w region ~tid ~nregs =
  Lognode.push w region ~kind:Lognode.kind_justdo ~tid
    ~payload_words:(6 + lock_slots + 1 + nregs + 2) ~size_at:off_nregs ~size:nregs

(* Hand a finished thread's arena to a fresh thread: disarm the
   resumption tuple and clear the lock machinery so recovery can never
   attribute the previous owner's state to the new tid. *)
let rebind w node ~tid =
  Lognode.rebind w node ~tid ~clear:[ off_valid; off_bitmap; off_intent ]

(* Arming must be crash-atomic together with the register/stack
   snapshot (see {!snapshot_regs}): real JUSTDO keeps every word of
   this resumption state permanently in NVM (the no-register-caching
   rule it pays for per instruction), so there is no instant at which
   recovery could observe a new pc with stale locals.  The simulator
   compresses that continuously-durable state into one update per
   store, so the update itself must not expose intermediate states:
   [arm_entry] pokes the entry directly into the persistence domain
   (simulator-side, no events), and [log_store] then replays the same
   writes through the Pwriter so the machine still pays the log's
   store/write-back/fence costs. *)
let arm_entry pm node ~pc ~addr ~value =
  Pmem.poke_int pm (node + off_pc) pc;
  Pmem.poke_int pm (node + off_addr) addr;
  Pmem.poke pm (node + off_val) value;
  Pmem.poke_int pm (node + off_valid) 1

let log_store ?(arm = true) w node ~pc ~addr ~value =
  if arm then arm_entry w.Pwriter.pm node ~pc ~addr ~value;
  Pwriter.store_int w (node + off_pc) pc;
  Pwriter.store_int w (node + off_addr) addr;
  Pwriter.store w (node + off_val) value;
  Pwriter.store_int w (node + off_valid) 1;
  Pwriter.clwb2 w (node + off_valid) (node + off_val);
  Pwriter.fence w

let clear w node =
  Pwriter.store_int w (node + off_valid) 0;
  Pwriter.clwb w (node + off_valid);
  Pwriter.fence w

let armed pm node = Pmem.load_int pm (node + off_valid) <> 0

let entry pm node =
  ( Pmem.load_int pm (node + off_pc),
    Pmem.load_int pm (node + off_addr),
    Pmem.load pm (node + off_val) )

let bitmap pm node = Pmem.load_int pm (node + off_bitmap)

let rec free_slot bits i =
  if i >= lock_slots || bits land (1 lsl i) = 0 then i else free_slot bits (i + 1)

(* The live slot holding [holder], or [lock_slots] when none does. *)
let rec held_slot pm node bits holder i =
  if
    i >= lock_slots
    || bits land (1 lsl i) <> 0
       && Pmem.load_int pm (node + off_locks + i) = holder
  then i
  else held_slot pm node bits holder (i + 1)

(* Two persist fences per lock operation: one for the intention log,
   one for the ownership record — the JUSTDO protocol that Sec. III-B
   improves upon. *)
let record_acquire w node ~holder =
  Pwriter.store_int w (node + off_intent) holder;
  Pwriter.clwb w (node + off_intent);
  Pwriter.fence w;
  let pm = w.Pwriter.pm in
  let bits = bitmap pm node in
  let slot = free_slot bits 0 in
  if slot >= lock_slots then
    Lognode.overflow ~scheme:"justdo" ~tid:(Lognode.tid pm node)
      ~log:"lock_array" ~capacity:lock_slots;
  Pwriter.store_int w (node + off_locks + slot) holder;
  Pwriter.store_int w (node + off_bitmap) (bits lor (1 lsl slot));
  Pwriter.store_int w (node + off_intent) 0;
  Pwriter.clwb3 w (node + off_locks + slot) (node + off_bitmap) (node + off_intent);
  Pwriter.fence w

(* The cleared bit is written back before the cleared slot: a crash
   between the two leaves a clear bit over a stale slot, which
   [held_locks] ignores, where the opposite order would expose the
   slot's 0 as a held lock 0. *)
let record_release w node ~holder =
  Pwriter.store_int w (node + off_intent) (-holder);
  Pwriter.clwb w (node + off_intent);
  Pwriter.fence w;
  let pm = w.Pwriter.pm in
  let bits = bitmap pm node in
  let slot = held_slot pm node bits holder 0 in
  if slot < lock_slots then begin
    Pwriter.store_int w (node + off_locks + slot) 0;
    Pwriter.store_int w (node + off_bitmap) (bits land lnot (1 lsl slot));
    Pwriter.store_int w (node + off_intent) 0;
    Pwriter.clwb3 w (node + off_bitmap) (node + off_locks + slot) (node + off_intent)
  end
  else begin
    Pwriter.store_int w (node + off_intent) 0;
    Pwriter.clwb2 w (node + off_bitmap) (node + off_intent)
  end;
  Pwriter.fence w

let held_locks pm node =
  let bits = bitmap pm node in
  let rec go i acc =
    if i >= lock_slots then List.rev acc
    else if bits land (1 lsl i) <> 0 then
      go (i + 1) (Pmem.load_int pm (node + off_locks + i) :: acc)
    else go (i + 1) acc
  in
  go 0 []

let snapshot_regs pm node regs =
  (* Crash-proof and free of crash windows: real JUSTDO keeps this
     state memory-resident by construction, so the simulator writes it
     straight into the persistence domain without surfacing events. *)
  Pmem.poke_bytes pm (node + off_regs) regs

let read_all_regs pm node =
  let nregs = Pmem.load_int pm (node + off_nregs) in
  Array.init nregs (fun r -> Pmem.load pm (node + off_regs + r))

let sim_off pm node = off_regs + Pmem.load_int pm (node + off_nregs)

let cell _ node a =
  match a - node with
  | o when o = off_valid -> "valid"
  | o when o >= off_pc && o <= off_val -> "entry"
  | o when o = off_intent -> "intent"
  | o when o = off_bitmap || (o >= off_locks && o < off_nregs) -> "lockrec"
  | o -> if o >= off_regs then "regs" else "header"

let set_sim_stack pm node ~base ~sp =
  (* Same crash-atomicity argument as {!snapshot_regs}. *)
  let o = node + sim_off pm node in
  Pmem.poke_int pm o base;
  Pmem.poke_int pm (o + 1) sp

let sim_stack pm node =
  let o = node + sim_off pm node in
  (Pmem.load_int pm o, Pmem.load_int pm (o + 1))
