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

(* Int-keyed tables for the step path (lock ids, Mnemosyne write
   versions and transaction read/write sets, NVThreads page copies): a
   multiplicative hash instead of the polymorphic one.  Nothing depends
   on their bucket order: the only iterations are a transaction's
   read-set validation (a conjunction) and its write-version update (an
   idempotent [replace] per address). *)
module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash x = (x * 0x2545F4914F6CDD1D) lsr 17
end)

type lock_state = {
  mutable holder : int option;  (* tid *)
  mutable acquired_at : Timebase.ns;
  waiters : int Queue.t;
}

let fresh_lock () = { holder = None; acquired_at = 0; waiters = Queue.create () }

type txn = {
  start_version : int;
  reads : unit Int_tbl.t;
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
  mutable pending_data_line : int;  (* JUSTDO: line awaiting flush; -1 none *)
  touched_pages : int Int_tbl.t;  (* NVThreads: page -> entry index *)
  mutable txn : txn option;
  mutable rewound : bool;  (* an abort just rewound the frame *)
  mutable first_boundary : bool;  (* next Hregion seeds full live-in set *)
  mutable pending_out_regs : int list list;
      (* out_regs of skipped boundaries, owed to the next persisted one:
         one list per skipped boundary, newest first *)
  mutable epoch : int;  (* persisted-boundary counter (iDO stamps) *)
  mutable ops : int;
  mutable observations : int64 list;  (* newest first *)
  mutable recovery_mode : bool;  (* run-to-FASE-end thread *)
  mutable steps : int;
}

type t = {
  config : config;
  image : Image.t;
  pmem : Pmem.t;
  region : Region.t;
  mutable vmem : Vmem.t;
  mutable locks : lock_state Int_tbl.t;
  rng : Rng.t;
  threads : thread Vec.t;  (* in spawn order *)
  mutable clock_floor : Timebase.ns;
      (* lower bound on [max_clock] after finished threads are reaped:
         keeps the machine clock monotonic (and new spawns starting "now")
         even when no live thread remembers the latest time *)
  mutable next_tid : int;
  mutable seq : int;  (* global sequence for happens-before records *)
  mutable commit_version : int;  (* Mnemosyne global commit clock *)
  mutable write_versions : int Int_tbl.t;
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

(* A tag test, not a structural compare: this guard sits on the
   per-instruction hot path and must cost nothing when no sink is
   installed. *)
let obs_active m = match m.obs with Some _ -> true | None -> false

(* Whether an event of any kind would reach a hook or the sink: the
   guard for building an allocated crash-point payload on the step path
   (non-crash-point kinds only ever reach the sink, so [obs_active]
   guards those). *)
let listening m =
  match (m.event_hook, m.obs) with None, None -> false | _ -> true

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

let next_seq m =
  m.seq <- m.seq + 1;
  m.seq

let lock_of m id =
  try Int_tbl.find m.locks id
  with Not_found ->
    let l = fresh_lock () in
    Int_tbl.replace m.locks id l;
    l

let find_thread m tid =
  match Vec.find_opt (fun t -> t.tid = tid) m.threads with
  | Some t -> t
  | None -> raise Not_found

let block (fr : frame) = (Image.ir fr.code).Ir.blocks.(fr.blk)

let current_frame t =
  match t.frames with
  | f :: _ -> f
  | [] -> failwith "thread has no frame"

let max_clock m =
  Vec.fold_left (fun acc t -> Stdlib.max acc t.clock) m.clock_floor m.threads

let runnable m =
  List.filter (fun t -> t.status = Runnable) (Vec.to_list m.threads)
