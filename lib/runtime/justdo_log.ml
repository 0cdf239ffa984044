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
  let node =
    Lognode.push w region ~kind:Lognode.kind_justdo ~tid
      ~payload_words:(6 + lock_slots + 1 + nregs + 2)
  in
  Pwriter.store w (node + off_nregs) (Int64.of_int nregs);
  Pwriter.clwb w (node + off_nregs);
  Pwriter.fence w;
  node

(* Hand a finished thread's arena to a fresh thread: disarm the
   resumption tuple and clear the lock machinery so recovery can never
   attribute the previous owner's state to the new tid. *)
let rebind w node ~tid =
  Lognode.store_tid w node ~tid;
  Pwriter.store w (node + off_valid) 0L;
  Pwriter.store w (node + off_bitmap) 0L;
  Pwriter.store w (node + off_intent) 0L;
  Pwriter.clwb_lines w
    [ node + 1; node + off_valid; node + off_bitmap; node + off_intent ];
  Pwriter.fence w

(* Arming must be crash-atomic together with the register/stack
   snapshot (see {!snapshot_regs}): real JUSTDO keeps every word of
   this resumption state permanently in NVM (the no-register-caching
   rule it pays for per instruction), so there is no instant at which
   recovery could observe a new pc with stale locals.  The simulator
   compresses that continuously-durable state into one update per
   store, so the update itself must not expose intermediate states:
   [arm] pokes the entry directly into the persistence domain
   (simulator-side, no events), and [log_store] then replays the same
   writes through the Pwriter so the machine still pays the log's
   store/write-back/fence costs. *)
let arm pm node ~pc ~addr ~value =
  Pmem.poke pm (node + off_pc) (Int64.of_int pc);
  Pmem.poke pm (node + off_addr) (Int64.of_int addr);
  Pmem.poke pm (node + off_val) value;
  Pmem.poke pm (node + off_valid) 1L

let log_store w node ~pc ~addr ~value =
  arm (Pwriter.pmem w) node ~pc ~addr ~value;
  Pwriter.store w (node + off_pc) (Int64.of_int pc);
  Pwriter.store w (node + off_addr) (Int64.of_int addr);
  Pwriter.store w (node + off_val) value;
  Pwriter.store w (node + off_valid) 1L;
  Pwriter.clwb_lines w [ node + off_valid; node + off_val ];
  Pwriter.fence w

let clear w node =
  Pwriter.store w (node + off_valid) 0L;
  Pwriter.clwb w (node + off_valid);
  Pwriter.fence w

let armed pm node = Pmem.load pm (node + off_valid) <> 0L

let entry pm node =
  ( Int64.to_int (Pmem.load pm (node + off_pc)),
    Int64.to_int (Pmem.load pm (node + off_addr)),
    Pmem.load pm (node + off_val) )

let bitmap pm node = Pmem.load pm (node + off_bitmap)

(* Two persist fences per lock operation: one for the intention log,
   one for the ownership record — the JUSTDO protocol that Sec. III-B
   improves upon. *)
let record_acquire w node ~holder =
  Pwriter.store w (node + off_intent) (Int64.of_int holder);
  Pwriter.clwb w (node + off_intent);
  Pwriter.fence w;
  let pm = Pwriter.pmem w in
  let bits = bitmap pm node in
  let rec free_slot i =
    if i >= lock_slots then
      Lognode.overflow ~scheme:"justdo" ~tid:(Lognode.tid pm node)
        ~log:"lock_array" ~capacity:lock_slots
    else if Int64.logand bits (Int64.shift_left 1L i) = 0L then i
    else free_slot (i + 1)
  in
  let slot = free_slot 0 in
  Pwriter.store w (node + off_locks + slot) (Int64.of_int holder);
  Pwriter.store w (node + off_bitmap)
    (Int64.logor bits (Int64.shift_left 1L slot));
  Pwriter.store w (node + off_intent) 0L;
  Pwriter.clwb_lines w
    [ node + off_locks + slot; node + off_bitmap; node + off_intent ];
  Pwriter.fence w

let record_release w node ~holder =
  Pwriter.store w (node + off_intent) (Int64.of_int (-holder));
  Pwriter.clwb w (node + off_intent);
  Pwriter.fence w;
  let pm = Pwriter.pmem w in
  let bits = bitmap pm node in
  let rec find i =
    if i >= lock_slots then None
    else if
      Int64.logand bits (Int64.shift_left 1L i) <> 0L
      && Pmem.load pm (node + off_locks + i) = Int64.of_int holder
    then Some i
    else find (i + 1)
  in
  (match find 0 with
  | None -> Pwriter.store w (node + off_intent) 0L
  | Some slot ->
      Pwriter.store w (node + off_locks + slot) 0L;
      Pwriter.store w (node + off_bitmap)
        (Int64.logand bits (Int64.lognot (Int64.shift_left 1L slot)));
      Pwriter.store w (node + off_intent) 0L);
  Pwriter.clwb_lines w [ node + off_locks; node + off_bitmap; node + off_intent ];
  Pwriter.fence w

let held_locks pm node =
  let bits = bitmap pm node in
  let rec go i acc =
    if i >= lock_slots then List.rev acc
    else if Int64.logand bits (Int64.shift_left 1L i) <> 0L then
      go (i + 1) (Int64.to_int (Pmem.load pm (node + off_locks + i)) :: acc)
    else go (i + 1) acc
  in
  go 0 []

let snapshot_regs pm node regs =
  (* Crash-proof and free of crash windows: real JUSTDO keeps this
     state memory-resident by construction, so the simulator writes it
     straight into the persistence domain without surfacing events. *)
  Pmem.poke_bytes pm (node + off_regs) regs

let read_all_regs pm node =
  let nregs = Int64.to_int (Pmem.load pm (node + off_nregs)) in
  Array.init nregs (fun r -> Pmem.load pm (node + off_regs + r))

let sim_off pm node = off_regs + Int64.to_int (Pmem.load pm (node + off_nregs))

let set_sim_stack pm node ~base ~sp =
  (* Same crash-atomicity argument as {!snapshot_regs}. *)
  let o = node + sim_off pm node in
  Pmem.poke pm o (Int64.of_int base);
  Pmem.poke pm (o + 1) (Int64.of_int sp)

let sim_stack pm node =
  let o = node + sim_off pm node in
  (Int64.to_int (Pmem.load pm o), Int64.to_int (Pmem.load pm (o + 1)))
