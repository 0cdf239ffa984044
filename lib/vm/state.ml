(* Machine and thread state for the simulated multiprocessor.  This
   module holds data only; execution lives in {!Interp} and recovery in
   {!Recover}.  It is internal to [ido_vm]; the public face is {!Vm}. *)

open Ido_util
open Ido_nvm
open Ido_region
open Ido_ir
open Ido_runtime

type config = {
  scheme : Scheme.t;
  latency : Latency.t;
  pmem_words : int;
  cache_lines : int;
  seed : int;
  stack_words : int;  (* per-thread stack area *)
  undo_cap : int;  (* UNDO records per thread (Atlas / NVML) *)
  redo_cap : int;  (* REDO entries per transaction (Mnemosyne) *)
  page_cap : int;  (* page images per FASE (NVThreads) *)
  collect_region_stats : bool;
  opt : bool;
      (* run the persistence-redundancy optimizer (Ido_opt) over the
         instrumented program at load time *)
  (* Ablation knobs (all on by default; see DESIGN.md ablations): *)
  elide_clean_boundaries : bool;
      (* skip lock-induced boundary persists while the region is clean *)
  coalesce_registers : bool;
      (* one write-back per intRF cache line instead of per register *)
  single_fence_locks : bool;
      (* iDO's indirect locking; off = JUSTDO-style two-fence lock ops *)
}

let default_config scheme =
  {
    scheme;
    latency = Latency.default;
    pmem_words = 1 lsl 23;
    cache_lines = 4096;
    seed = 42;
    stack_words = 256;
    undo_cap = 1 lsl 14;
    redo_cap = 1 lsl 12;
    page_cap = 64;
    collect_region_stats = false;
    opt = false;
    elide_clean_boundaries = true;
    coalesce_registers = true;
    single_fence_locks = true;
  }

(* Int-keyed tables for a Mnemosyne transaction's write set and the
   NVThreads page copies: a multiplicative hash instead of the
   polymorphic one.  Nothing iterates them, so nothing depends on their
   bucket order. *)
module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash x = (x * 0x2545F4914F6CDD1D) lsr 17
end)

type txn = {
  start_version : int;
  reads : Lineset.t;  (* distinct addresses read from memory *)
  writes : int64 Int_tbl.t;
  write_order : int Vec.t;
      (* distinct written addresses in first-store order: the commit
         write-back schedule, independent of table iteration order *)
  snap_regs : Bytes.t;  (* the register file at begin, as [frame.regs] *)
  snap_blk : int;
  snap_idx : int;
  mutable retries : int;
}

type thread_status = Runnable | Blocked | Done

(* A log grant armed by a detached (hoisted) grant hook, consumed by
   the next qualifying persistent store of the thread.  Adjacent
   [hook; store] pairs keep the eager capture path; arming only covers
   the optimizer's loop-preheader hoists (O104). *)
type armed = Grant_none | Grant_undo | Grant_page

(* A register file holds each 64-bit register unboxed, 8 bytes per
   register in native byte order, so computing a value allocates
   nothing and writing one is a plain store with no write barrier.  Its
   accessors live in [Interp], where they inline. *)
type frame = {
  code : Image.entry;  (* the executing function, resolved *)
  blocks : Ir.block array;  (* [(Image.ir code).blocks], read every step *)
  mutable blk : int;
  mutable idx : int;
  regs : Bytes.t;  (* [nregs] registers, 8 bytes each *)
  ret_to : int option;  (* destination register in the caller *)
  saved_sp : int;
}

let new_regs nregs = Bytes.make (8 * nregs) '\000'

type thread = {
  tid : int;
  writer : Pwriter.t;
  rng : Rng.t;
  mutable clock : Timebase.ns;
  mutable status : thread_status;
  mutable frames : frame list;  (* innermost first *)
  mutable sp : int;  (* next free word within the stack area *)
  stack_base : int;  (* absolute base address of the stack area *)
  stack_in_pmem : bool;
  mutable log_node : int;  (* 0 = none *)
  mutable in_fase : bool;
  mutable fase_id : int;  (* global id of the open FASE; -1 outside *)
  mutable region_stores : int;  (* dynamic stores in the open region *)
  region_lines : Lineset.t;  (* dirty lines since boundary *)
  fase_lines : Lineset.t;  (* dirty lines since FASE begin *)
  mutable last_lock : int;  (* operand of the last Lock executed *)
  mutable armed_grant : armed;
  mutable pending_data_line : int;
      (* [proto.per_store] (JUSTDO): line awaiting flush; -1 none *)
  touched_pages : int Int_tbl.t;
      (* [proto.page_copies] (NVThreads): page -> entry index *)
  mutable txn : txn option;
  txn_reads : Lineset.t;
      (* Mnemosyne: the read set of each of the thread's transactions
         in turn, reset at begin, so a long one grows it once *)
  mutable rewound : bool;  (* an abort just rewound the frame *)
  mutable first_boundary : bool;  (* next Hregion seeds full live-in set *)
  mutable owed_regs : int list;
      (* out_regs of skipped boundaries, owed to the next persisted one:
         their union, ascending *)
  mutable epoch : int;  (* persisted-boundary counter (iDO stamps) *)
  mutable ops : int;
  mutable observations : int64 list;  (* newest first *)
  mutable recovery_mode : bool;  (* run-to-FASE-end thread *)
  mutable steps : int;
  mutable rank : int;
      (* position in the machine's [threads] when the current [run]
         began: the scheduler's tie-break between equal clocks *)
}

type lock_state = {
  mutable holder : int;  (* tid; -1 when free *)
  waiters : thread Queue.t;
}

let fresh_lock () = { holder = -1; waiters = Queue.create () }

(* Lock id -> transient mutex, for the lock operations on the step
   path: open addressing with linear probing over two parallel arrays,
   a power of two long and at most half full.  A free slot holds
   [no_lock], which is never handed out.  Mutexes are never removed; a
   crash or reset starts a new table.  Nothing iterates it. *)
type lock_table = {
  mutable ids : int array;
  mutable mutexes : lock_state array;
  mutable count : int;
}

let no_lock = fresh_lock ()
let lock_table () = { ids = Array.make 64 0; mutexes = Array.make 64 no_lock; count = 0 }

(* Mnemosyne's write versions: address -> the commit version that last
   wrote it, by open addressing over two parallel arrays, a power of
   two long and at most half full.  A free slot holds address -1. *)
type version_table = {
  mutable addrs : int array;
  mutable versions : int array;
  mutable written : int;
}

let version_table () =
  { addrs = Array.make 256 (-1); versions = Array.make 256 0; written = 0 }

type t = {
  config : config;
  image : Image.t;
  pmem : Pmem.t;
  region : Region.t;
  mutable vmem : Vmem.t;
  mutable locks : lock_table;
  rng : Rng.t;
  threads : thread Vec.t;  (* in spawn order *)
  mutable sched : thread array;  (* [threads] as of [run]'s start, by rank *)
  mutable runq_rank : int array;
  mutable runq_clock : int array;
  mutable runq_len : int;
      (* the run queue: a binary min-heap of the runnable threads'
         ranks, ordered by (clock, rank), in [runq_len] slots of two
         parallel arrays; a queued thread's clock does not change *)
  mutable clock_floor : Timebase.ns;
      (* lower bound on [max_clock] after finished threads are reaped:
         keeps the machine clock monotonic (and new spawns starting "now")
         even when no live thread remembers the latest time *)
  proto : Protocol.t;  (* the scheme's persist protocol, run at every hook *)
  env : Protocol.env;
      (* the protocols' machine-wide state: the happens-before sequence
         and the ablation knobs *)
  mutable next_tid : int;
  mutable commit_version : int;  (* Mnemosyne global commit clock *)
  mutable write_versions : version_table;
  mutable commit_token_free_at : Timebase.ns;  (* STM commit serialization *)
  stores_per_region : Cdf.t;
  livein_per_region : Cdf.t;
  mutable total_ops : int;
  mutable crashed : bool;
  mutable tracer : (string -> unit) option;
      (* when set, receives one line per executed instruction *)
  mutable event_hook : (Ido_obs.Obs.kind -> unit) option;
      (* crash-injection hook: receives every crash-point event (see
         [emit]); may raise to stop the machine mid-flight *)
  mutable obs : Ido_obs.Obs.t option;
      (* observability sink; when None the machine does no obs work *)
  mutable obs_base : Pmem.counters;
      (* pmem counters when the sink was installed: the start of the
         window [Vm.obs_check] reconciles *)
  mutable obs_tid : int;  (* thread context for pmem-level obs events *)
  mutable obs_fase : int;  (* FASE context; -1 outside any FASE *)
  mutable next_fase_id : int;  (* global FASE id allocator *)
  mutable free_stacks : int list;
      (* recycled per-thread stack bases (each config.stack_words
         long, pmem or vmem per the scheme) — refilled by [reap] at
         quiescent points so a spawn-per-request driver keeps memory
         proportional to live threads, not to requests served *)
  mutable free_log_nodes : int list;
      (* recycled per-thread log arenas, left in each scheme's clean
         state; spawn rebinds one instead of growing the region and
         the log-head chain *)
}

let counters_snapshot pmem =
  let c = Pmem.counters pmem in
  { c with Pmem.loads = c.Pmem.loads }

(* Tag subsequent pmem-level obs events with a thread's identity (or
   the machine's, tid = fase = -1). *)
let obs_context m ~tid ~fase =
  m.obs_tid <- tid;
  m.obs_fase <- fase

(* The machine's one event path.  The crash-injection hook runs first
   and sees only crash-point kinds: if it raises, the event's effect
   never happens, so neither the pmem counters nor the sink record it
   and the two stay in exact agreement.  The sink then gets every kind,
   tagged with the current thread/FASE context. *)
let emit m kind =
  (match m.event_hook with
  | Some f when Ido_obs.Obs.crash_point kind -> f kind
  | _ -> ());
  match m.obs with
  | None -> ()
  | Some o -> Ido_obs.Obs.emit o ~tid:m.obs_tid ~fase:m.obs_fase kind

(* The persistence domain raises its events through [emit], but only
   while something listens: with neither hook nor sink, pmem builds no
   event at all. *)
let sync_pmem_hook m =
  Pmem.set_event_hook m.pmem
    (match (m.event_hook, m.obs) with
    | None, None -> None
    | _ -> Some (emit m))

let lock_hash id = (id * 0x2545F4914F6CDD1D) lsr 17

(* The slot holding [id], or the free slot where it belongs. *)
let rec lock_slot ids mutexes mask (id : int) i =
  let l = mutexes.(i) in
  if l == no_lock || ids.(i) = id then i
  else lock_slot ids mutexes mask id ((i + 1) land mask)

let lock_grow tb =
  let n = 2 * Array.length tb.ids in
  let ids = Array.make n 0 and mutexes = Array.make n no_lock in
  Array.iteri
    (fun j l ->
      if l != no_lock then begin
        let i = lock_slot ids mutexes (n - 1) tb.ids.(j) (lock_hash tb.ids.(j) land (n - 1)) in
        ids.(i) <- tb.ids.(j);
        mutexes.(i) <- l
      end)
    tb.mutexes;
  tb.ids <- ids;
  tb.mutexes <- mutexes

let lock_of m id =
  let tb = m.locks in
  let mask = Array.length tb.ids - 1 in
  let i = lock_slot tb.ids tb.mutexes mask id (lock_hash id land mask) in
  let l = tb.mutexes.(i) in
  if l != no_lock then l
  else begin
    let l = fresh_lock () in
    tb.ids.(i) <- id;
    tb.mutexes.(i) <- l;
    tb.count <- tb.count + 1;
    if 2 * tb.count > mask then lock_grow tb;
    l
  end

let version_hash a = (a * 0x2545F4914F6CDD1D) lsr 17

let rec version_slot addrs mask a i =
  let x = addrs.(i) in
  if x = -1 || x = a then i else version_slot addrs mask a ((i + 1) land mask)

(* The version of the last commit that wrote [a]; 0 when none has
   (commit versions start at 1). *)
let write_version m a =
  let vt = m.write_versions in
  let mask = Array.length vt.addrs - 1 in
  let i = version_slot vt.addrs mask a (version_hash a land mask) in
  if vt.addrs.(i) = a then vt.versions.(i) else 0

let rec set_write_version m a v =
  let vt = m.write_versions in
  let mask = Array.length vt.addrs - 1 in
  let i = version_slot vt.addrs mask a (version_hash a land mask) in
  if vt.addrs.(i) = a then vt.versions.(i) <- v
  else if 2 * (vt.written + 1) > mask then begin
    let old_addrs = vt.addrs and old_versions = vt.versions in
    vt.addrs <- Array.make (2 * (mask + 1)) (-1);
    vt.versions <- Array.make (2 * (mask + 1)) 0;
    vt.written <- 0;
    Array.iteri
      (fun j x -> if x <> -1 then set_write_version m x old_versions.(j))
      old_addrs;
    set_write_version m a v
  end
  else begin
    vt.addrs.(i) <- a;
    vt.versions.(i) <- v;
    vt.written <- vt.written + 1
  end

let new_frame code ~blk ~idx ~regs ~ret_to ~saved_sp =
  { code; blocks = (Image.ir code).Ir.blocks; blk; idx; regs; ret_to; saved_sp }

(* A thread about to run [frame]: a spawned one, or (in
   [recovery_mode]) one resuming an interrupted FASE. *)
let new_thread m ~tid ~frame ~stack_base ~stack_in_pmem ~log_node ~recovery_mode =
  {
    tid;
    writer = Pwriter.create m.pmem m.config.latency;
    rng = Rng.split m.rng;
    clock = 0;
    status = Runnable;
    frames = [ frame ];
    sp = 0;
    stack_base;
    stack_in_pmem;
    log_node;
    in_fase = false;
    fase_id = -1;
    region_stores = 0;
    region_lines = Lineset.create ();
    fase_lines = Lineset.create ();
    last_lock = 0;
    armed_grant = Grant_none;
    pending_data_line = -1;
    touched_pages = Int_tbl.create 8;
    txn = None;
    txn_reads = Lineset.create ();
    rewound = false;
    first_boundary = false;
    owed_regs = [];
    epoch = 0;
    ops = 0;
    observations = [];
    recovery_mode;
    steps = 0;
    rank = 0;
  }

let max_clock m =
  Vec.fold_left
    (fun acc t -> if t.clock > acc then t.clock else acc)
    m.clock_floor m.threads
