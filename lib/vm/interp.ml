(* The simulated multiprocessor.

   Each simulated thread carries its own nanosecond clock; the
   scheduler always advances the runnable thread with the smallest
   clock (bursting while it remains the earliest), so cross-thread
   interactions — lock hand-offs, transaction commits — happen in a
   single causally-consistent order.  Lock contention transfers clock
   values from releaser to acquirer, which is what produces realistic
   scaling curves.

   Crash granularity is the instruction: a crash lands between
   instruction slots, and the persistent image then contains exactly
   the lines that were written back (or evicted) so far. *)

open Ido_util
open Ido_nvm
open Ido_region
open Ido_ir
open Ido_runtime
open State

type run_outcome = [ `Idle | `Until | `Max_steps | `Deadlock ]

(* A tag test, not a structural compare: this guard sits on the
   per-instruction hot path and must cost nothing when no sink is
   installed. *)
let[@inline] obs_active m = match m.obs with Some _ -> true | None -> false

let create (config : config) (program : Ir.program) =
  Ido_analysis.Validate.check_program_exn program;
  let instrumented =
    Ido_instrument.Instrument.instrument ~opt:config.opt config.scheme program
  in
  let image = Image.build instrumented in
  let rng = Rng.create config.seed in
  let pmem = Pmem.create ~cache_lines:config.cache_lines ~rng:(Rng.split rng) config.pmem_words in
  let region = Region.create pmem in
  Region.mark_running region;
  let rec m =
    {
      config;
      image;
      pmem;
      region;
      vmem = Vmem.create ();
      locks = lock_table ();
      rng;
      threads = Vec.create ();
      clock_floor = 0;
      proto = Protocol.make config.scheme;
      env =
        {
          Protocol.seq = 0;
          (* A log-append event reaches only the sink, so its payload is
             built only while one is installed. *)
          appended =
            (fun log bytes ->
              if obs_active m then emit m (Ido_obs.Obs.Log_append { log; bytes }));
          coalesce = config.coalesce_registers;
          single_fence = config.single_fence_locks;
        };
      next_tid = 0;
      commit_version = 0;
      write_versions = version_table ();
      commit_token_free_at = 0;
      stores_per_region = Cdf.create ();
      livein_per_region = Cdf.create ();
      total_ops = 0;
      crashed = false;
      tracer = None;
      event_hook = None;
      obs = None;
      obs_base = counters_snapshot pmem;
      obs_tid = -1;
      obs_fase = -1;
      next_fase_id = 0;
      free_stacks = [];
      free_log_nodes = [];
      sched = [||];
      runq_rank = [||];
      runq_clock = [||];
      runq_len = 0;
    }
  in
  m

(* Remove every observer, so what follows is as unobserved as [create]. *)
let quiesce m =
  m.tracer <- None;
  m.event_hook <- None;
  m.obs <- None;
  sync_pmem_hook m;
  m.obs_tid <- -1;
  m.obs_fase <- -1

(* Discard the volatile structures a power failure loses, apart from
   the thread table. *)
let drop_volatile m =
  m.vmem <- Vmem.create ();
  m.locks <- lock_table ();
  m.write_versions <- version_table ();
  m.commit_token_free_at <- 0;
  m.sched <- [||];
  m.runq_len <- 0;
  (* Volatile allocator bookkeeping does not survive power failure;
     recovery walks the persistent log chain, not these lists. *)
  m.free_stacks <- [];
  m.free_log_nodes <- []

(* Return the machine to the state [create config program] would have
   produced, reusing the expensive parts: the instrumented image, the
   pmem pages already written, the lock tables and thread vector.
   Deterministic equivalence holds because (a) the RNG is re-seeded
   exactly as [create] seeds it, (b) nothing iterates the recycled
   hashtables in a capacity-dependent order, and (c) every written
   pmem page is re-zeroed.  The crash explorer resets its arena machine
   between runs instead of re-validating and re-instrumenting the
   program per run. *)
let reset m =
  quiesce m;
  Rng.assign ~into:m.rng (Rng.create m.config.seed);
  Pmem.reset ~rng:(Rng.split m.rng) m.pmem;
  ignore (Region.create m.pmem : Region.t);
  Region.mark_running m.region;
  Vec.truncate m.threads;
  drop_volatile m;
  m.clock_floor <- 0;
  m.next_tid <- 0;
  m.env.seq <- 0;
  m.commit_version <- 0;
  Cdf.clear m.stores_per_region;
  Cdf.clear m.livein_per_region;
  m.total_ops <- 0;
  m.crashed <- false;
  m.next_fase_id <- 0

(* ------------------------------------------------------------------ *)
(* Register file *)

(* The register accessors and the per-step helpers below stay in this
   module so they inline: the library is compiled [-opaque] in the dev
   profile, so any cross-module call is a real call (through
   [caml_applyN] when it takes two arguments or more), and one that
   takes or returns an [int64] boxes it. *)
let[@inline] reg (fr : frame) r = Bytes.get_int64_ne fr.regs (8 * r)
let[@inline] set_reg (fr : frame) r v = Bytes.set_int64_ne fr.regs (8 * r) v

let[@inline] block (fr : frame) = fr.blocks.(fr.blk)

(* [Stdlib.min] and [max] are polymorphic: on ints they call the
   runtime's generic comparison. *)
let[@inline] imin (a : int) b = if a <= b then a else b
let[@inline] imax (a : int) b = if a >= b then a else b

let[@inline] current_frame t =
  match t.frames with
  | f :: _ -> f
  | [] -> failwith "thread has no frame"

(* Whether an event of any kind would reach a hook or the sink: the
   guard for building an allocated crash-point payload on the step path
   (non-crash-point kinds only ever reach the sink, so [obs_active]
   guards those). *)
let[@inline] listening m =
  match (m.event_hook, m.obs) with None, None -> false | _ -> true

let spawn m ~fname ~args =
  let code = Image.entry m.image fname in
  let arity = List.length (Image.ir code).params in
  if List.length args <> arity then
    invalid_arg
      (Printf.sprintf "Vm.spawn: %s takes %d argument(s), got %d" fname arity
         (List.length args));
  let tid = m.next_tid in
  m.next_tid <- tid + 1;
  let in_pmem = (Scheme.props m.config.scheme).stack_in_pmem in
  let stack_base =
    match m.free_stacks with
    | base :: rest ->
        (* Recycled stack: zero it so the new thread sees exactly what
           a fresh allocation would have given it.  Zero, not store:
           allocator-side initialisation, no persist events or cost —
           the same convention as fresh (zeroed) memory. *)
        m.free_stacks <- rest;
        if in_pmem then Pmem.zero m.pmem base m.config.stack_words
        else Vmem.zero m.vmem base m.config.stack_words;
        base
    | [] ->
        if in_pmem then Region.alloc m.region m.config.stack_words
        else Vmem.alloc m.vmem m.config.stack_words
  in
  let w = Pwriter.create m.pmem m.config.latency in
  let log_node =
    match m.free_log_nodes with
    | node :: rest ->
        (* Recycled arena: rebind the clean node to the new tid instead
           of growing the region and the log-head chain. *)
        m.free_log_nodes <- rest;
        m.proto.rebind w node ~tid;
        node
    | [] ->
        m.proto.create w m.region ~tid
          {
            Protocol.nregs = Image.max_regs m.image;
            undo_cap = m.config.undo_cap;
            redo_cap = m.config.redo_cap;
            page_cap = m.config.page_cap;
          }
  in
  ignore (Pwriter.take_cost w);
  let regs = new_regs (Image.ir code).nregs in
  List.iter2 (fun r v -> Bytes.set_int64_ne regs (8 * r) v) (Image.ir code).params args;
  let t =
    new_thread m ~tid
      ~frame:(new_frame code ~blk:0 ~idx:0 ~regs ~ret_to:None ~saved_sp:0)
      ~stack_base ~stack_in_pmem:in_pmem ~log_node ~recovery_mode:false
  in
  (* A thread spawned now begins at the machine's current time, not at
     zero — setup work precedes measurement. *)
  t.clock <- max_clock m;
  Vec.push m.threads t;
  t

(* ------------------------------------------------------------------ *)
(* Operand evaluation and addressing *)

(* Both arms must yield an unboxed value for [eval] to stay unboxed
   once inlined: an [Imm] payload is a pointer to a boxed int64, and
   returning it as is would make the compiler box the register read of
   the other arm.  Adding 0 reads the payload instead. *)
let[@inline] eval (fr : frame) = function
  | Ir.Reg r -> reg fr r
  | Ir.Imm i -> Int64.add i 0L

let[@inline] eval_int fr op = Int64.to_int (eval fr op)

exception Vm_error of string

let vm_error fmt = Printf.ksprintf (fun s -> raise (Vm_error s)) fmt

(* The checked word address of a memory operand.  Which memory it
   names is [in_pmem]'s answer, kept separate so that resolving an
   address allocates nothing. *)
let resolve m (t : thread) fr (space : Ir.space) base off =
  let a = eval_int fr base + off in
  (match space with
  | Ir.Persistent ->
      (* [config.pmem_words] is the memory's size, read without a call. *)
      if a < 0 || a >= m.config.pmem_words then
        vm_error "persistent address %d out of range" a
  | Ir.Transient -> if a < 0 then vm_error "transient address %d out of range" a
  | Ir.Stack ->
      if a < t.stack_base || a >= t.stack_base + m.config.stack_words then
        vm_error "stack address %d outside [%d,%d)" a t.stack_base
          (t.stack_base + m.config.stack_words));
  a

let in_pmem (t : thread) (space : Ir.space) =
  match space with
  | Ir.Persistent -> true
  | Ir.Transient -> false
  | Ir.Stack -> t.stack_in_pmem

let line_of a = a / Pmem.words_per_line

let lat m = m.config.latency

(* Charged in place on the thread's writer, which [step] drains into
   the thread's clock. *)
let[@inline] cost (t : thread) c =
  let w = t.writer in
  w.Pwriter.cost <- w.Pwriter.cost + c

(* ------------------------------------------------------------------ *)
(* Transactions (Mnemosyne) *)

let abort_txn m (t : thread) (txn : txn) =
  let fr = current_frame t in
  Bytes.blit txn.snap_regs 0 fr.regs 0 (Bytes.length fr.regs);
  fr.blk <- txn.snap_blk;
  fr.idx <- txn.snap_idx;
  t.txn <- Some txn;  (* keep only to carry the retry count *)
  t.rewound <- true;
  t.in_fase <- false;
  if obs_active m then begin
    emit m Ido_obs.Obs.Fase_exit;
    obs_context m ~tid:t.tid ~fase:(-1)
  end;
  t.fase_id <- -1;
  (* Randomised backoff grows with retries to avoid livelock. *)
  let backoff = Rng.int t.rng (50 * (txn.retries + 1)) in
  cost t ((lat m).Latency.alu * 5);
  cost t backoff

(* Whether a transaction that began at [start] must abort on reading
   [a]: a later commit wrote it. *)
let written_since m start a = write_version m a > start

(* Load into register [dst] inside a transaction.  Raises [Exit] when
   validation fails, after the load: the abort then restores every
   register from the transaction's snapshot. *)
let txn_load m (t : thread) txn (fr : frame) a dst =
  if Int_tbl.length txn.writes > 0 && Int_tbl.mem txn.writes a then begin
    cost t (lat m).Latency.alu;
    set_reg fr dst (Int_tbl.find txn.writes a)
  end
  else begin
    Pwriter.load_into t.writer a fr.regs (8 * dst);
    (* Eager validation gives opacity: never compute on stale data. *)
    if written_since m txn.start_version a then raise Exit;
    Lineset.add txn.reads a;
    cost t (2 * (lat m).Latency.alu)
  end

let txn_store m (t : thread) txn a v =
  if not (Int_tbl.mem txn.writes a) then Vec.push txn.write_order a;
  Int_tbl.replace txn.writes a v;
  m.proto.redo_store m.env t.writer t.log_node ~addr:a ~value:v;
  cost t (lat m).Latency.alu

(* ------------------------------------------------------------------ *)
(* Memory access *)

(* NVThreads: inside a FASE, reads and writes of a copied page are
   served from the thread's page copy; the master stays pristine until
   commit.  The index of the thread's copy of [a]'s page, or -1. *)
let page_copy (t : thread) a =
  match Int_tbl.find_opt t.touched_pages (Page_log.page_of a) with
  | Some i -> i
  | None -> -1

let copy_addr (t : thread) i a =
  Page_log.copy_word_addr t.log_node i ~off:(a mod Page_log.page_words)

(* Load the word at [a] straight into register [dst], boxing nothing on
   the plain paths.  False when a transaction abort rewound the frame
   instead. *)
let load_reg m (t : thread) fr ~pmem a dst =
  if not pmem then begin
    cost t (lat m).Latency.mem;
    Vmem.load_into m.vmem a fr.regs (8 * dst);
    true
  end
  else if m.proto.page_copies && t.in_fase then begin
    let i = page_copy t a in
    Pwriter.load_into t.writer (if i < 0 then a else copy_addr t i a) fr.regs (8 * dst);
    true
  end
  else
    match t.txn with
    | Some txn -> (
        match txn_load m t txn fr a dst with
        | () -> true
        | exception Exit ->
            abort_txn m t { txn with retries = txn.retries + 1 };
            false)
    | None ->
        Pwriter.load_into t.writer a fr.regs (8 * dst);
        true

(* Store an operand's word: a register's straight from its bytes, an
   immediate's from the box the instruction already holds. *)
let[@inline] store_operand w a (fr : frame) (src : Ir.operand) =
  match src with
  | Ir.Reg r -> Pwriter.store_from w a fr.regs (8 * r)
  | Ir.Imm v -> Pwriter.store w a v

let track_store m (t : thread) a =
  if t.in_fase then begin
    let line = line_of a in
    Lineset.add t.region_lines line;
    Lineset.add t.fase_lines line;
    t.region_stores <- t.region_stores + 1;
    if m.proto.per_store then t.pending_data_line <- line
  end

(* NVThreads: log [page] once per FASE segment and map it to its
   copy. *)
let log_page_once m (t : thread) page =
  if not (Int_tbl.mem t.touched_pages page) then
    Int_tbl.replace t.touched_pages page
      (m.proto.page_log m.env t.writer t.log_node ~page)

let do_store m (t : thread) fr ~pmem a (src : Ir.operand) =
  if not pmem then begin
    cost t (lat m).Latency.mem;
    match src with
    | Ir.Reg r -> Vmem.store_from m.vmem a fr.regs (8 * r)
    | Ir.Imm v -> Vmem.store m.vmem a v
  end
  else if m.proto.page_copies && t.in_fase then begin
    (* A hoisted Hpage_log (O104) armed the grant; the first in-FASE
       store consumes it, with exec_page_log's page dedup. *)
    if t.armed_grant = Grant_page then begin
      t.armed_grant <- Grant_none;
      log_page_once m t (Page_log.page_of a)
    end;
    let i = page_copy t a in
    if i < 0 then
      (* The Hpage_log hook precedes every in-FASE store, so the copy
         must exist. *)
      vm_error "nvthreads: store to uncopied page at %d" a;
    store_operand t.writer (copy_addr t i a) fr src;
    Page_log.mark_dirty t.writer t.log_node i ~off:(a mod Page_log.page_words);
    t.region_stores <- t.region_stores + 1
  end
  else
    match t.txn with
    | Some txn -> txn_store m t txn a (eval fr src)
    | None ->
        (* A hoisted Hundo_store armed the grant: capture the old
           value now, append-before-store exactly as the eager path
           does. *)
        if t.armed_grant = Grant_undo then begin
          t.armed_grant <- Grant_none;
          m.proto.undo_store m.env t.writer t.log_node ~addr:a
        end;
        store_operand t.writer a fr src;
        track_store m t a

(* ------------------------------------------------------------------ *)
(* Helpers for hooks that refer to a neighbouring instruction *)

let not_found (fr : frame) =
  vm_error "hook: expected instruction not found after (%d,%d)" fr.blk fr.idx

let rec unlock_operand fr (instrs : Ir.instr array) i =
  if i >= Array.length instrs then not_found fr
  else
    match instrs.(i) with
    | Ir.Unlock op -> op
    | _ -> unlock_operand fr instrs (i + 1)

let upcoming_unlock (fr : frame) = unlock_operand fr (block fr).instrs (fr.idx + 1)

let pc_here fr = Image.pc fr.code ~blk:fr.blk ~idx:fr.idx

(* ------------------------------------------------------------------ *)
(* Scheme hooks *)

(* Is the next release hook in this block an outermost one? *)
let rec outermost_release_from (instrs : Ir.instr array) i =
  if i >= Array.length instrs then false
  else
    match instrs.(i) with
    | Ir.Hook (Ir.Hlock_release { outermost }) -> outermost
    | _ -> outermost_release_from instrs (i + 1)

let upcoming_release_is_outermost (fr : frame) =
  outermost_release_from (block fr).instrs (fr.idx + 1)

(* The Fig. 8 distributions, kept only when the configuration asks. *)
let record_region_stats m (t : thread) live_in_count =
  if m.config.collect_region_stats then begin
    Cdf.add m.stores_per_region t.region_stores;
    if live_in_count >= 0 then Cdf.add m.livein_per_region live_in_count
  end;
  t.region_stores <- 0

(* Union of two sorted deduped lists — equal to
   [List.sort_uniq compare (a @ b)] without re-sorting [b]. *)
let rec merge_uniq (a : int list) b =
  match (a, b) with
  | [], ys -> ys
  | xs, [] -> xs
  | x :: xs, y :: ys ->
      if x < y then x :: merge_uniq xs b
      else if x > y then y :: merge_uniq a ys
      else x :: merge_uniq xs ys

(* The ascending set [owed] with [r] added: [owed] itself when it
   already holds [r], so a loop's skipped boundaries, which owe the same
   registers each time round, allocate nothing. *)
let rec owe_reg (r : int) = function
  | [] -> [ r ]
  | x :: rest as owed ->
      if r < x then r :: owed
      else if r = x then owed
      else
        let rest' = owe_reg r rest in
        if rest' == rest then owed else x :: rest'

let rec owe owed = function [] -> owed | r :: rs -> owe (owe_reg r owed) rs

let rec still_live meta = function
  | [] -> []
  | r :: rest ->
      if Image.live_in_mem meta r then r :: still_live meta rest
      else still_live meta rest

let exec_region_boundary m (t : thread) fr (rh : Ir.region_hook) =
  if m.config.collect_region_stats then
    record_region_stats m t (Image.region fr.code rh.region_id).Image.n_live_in
  else t.region_stores <- 0;
  let clean = Lineset.is_empty t.region_lines in
  if
    m.config.elide_clean_boundaries && rh.skippable && clean
    && not t.first_boundary
  then begin
    (* Lock-induced boundary closing a clean region: elide the persist.
       Resumption restarts from the previous persisted boundary and
       re-executes the clean segment (reads and lock operations are
       idempotent; re-acquired locks tolerate self-holds and stolen
       releases).  The boundary's OutputSet is owed to the next
       persisted boundary so intRF stays current. *)
    if obs_active m then
      emit m (Ido_obs.Obs.Boundary { region = rh.region_id; elided = true });
    t.owed_regs <- owe t.owed_regs rh.out_regs
  end
  else begin
    if obs_active m then
      emit m (Ido_obs.Obs.Boundary { region = rh.region_id; elided = false });
    (* The OutputSet to persist: the closed region's output registers
       (all live-ins at the first boundary of the FASE, which must seed
       intRF) and the OutputSets owed by skipped boundaries (filtered to
       registers still live here). *)
    let meta = Image.region fr.code rh.region_id in
    let regs_to_log =
      if t.first_boundary then meta.Image.first_regs
      else
        match t.owed_regs with
        | [] -> meta.Image.out_sorted
        | owed -> merge_uniq (still_live meta owed) meta.Image.out_sorted
    in
    t.first_boundary <- false;
    t.owed_regs <- [];
    t.epoch <- t.epoch + 1;
    m.proto.boundary m.env t.writer t.log_node ~regs:fr.regs ~out:regs_to_log
      ~lines:t.region_lines ~epoch:t.epoch ~pc:(pc_here fr)
      ~at_release:rh.at_release
      ~outermost:(rh.at_release && upcoming_release_is_outermost fr)
  end

let exec_fase_enter m (t : thread) _fr =
  t.in_fase <- true;
  t.armed_grant <- Grant_none;
  (* Every dynamic FASE gets a globally unique id so event attribution
     never conflates two executions of the same static section. *)
  t.fase_id <- m.next_fase_id;
  m.next_fase_id <- m.next_fase_id + 1;
  if obs_active m then begin
    obs_context m ~tid:t.tid ~fase:t.fase_id;
    emit m Ido_obs.Obs.Fase_enter
  end;
  t.region_stores <- 0;
  Lineset.reset t.region_lines;
  Lineset.reset t.fase_lines;
  Int_tbl.reset t.touched_pages;
  t.first_boundary <- true;
  t.pending_data_line <- -1;
  m.proto.fase_enter m.env t.writer t.log_node ~stack_base:t.stack_base ~sp:t.sp

let exec_fase_exit m (t : thread) _fr =
  t.armed_grant <- Grant_none;
  if (Scheme.props m.config.scheme).region_cuts then begin
    record_region_stats m t (-1);
    t.owed_regs <- []
  end;
  m.proto.fase_exit m.env t.writer t.log_node ~last_line:t.pending_data_line;
  t.pending_data_line <- -1;
  (* Atlas's runtime bookkeeping (log-space management, consistent-
     state helper) is a shared structure: FASE completion touches it
     under a global token — the "runtime synchronization" that
     saturates at high thread counts (Sec. V-B). *)
  let hold = m.proto.exit_hold in
  if hold > 0 then begin
    let start = imax t.clock m.commit_token_free_at in
    m.commit_token_free_at <- start + hold;
    cost t (start - t.clock + hold)
  end;
  t.in_fase <- false;
  if obs_active m then begin
    emit m Ido_obs.Obs.Fase_exit;
    t.fase_id <- -1;
    obs_context m ~tid:t.tid ~fase:(-1)
  end
  else t.fase_id <- -1;
  if t.recovery_mode then t.status <- Done

(* The hooks that protect a store scan their block for it with a
   top-level loop over the instruction array, which allocates nothing;
   the store is the first one after the hook. *)
let rec exec_justdo_store m (t : thread) fr (instrs : Ir.instr array) i =
  if i >= Array.length instrs then not_found fr
  else
    match instrs.(i) with
    | Ir.Store { space; base; off; src } ->
        let a = resolve m t fr space base off in
        if not (in_pmem t space) then
          vm_error "justdo store hook on volatile location";
        m.proto.justdo_store m.env t.writer t.log_node
          ~last_line:t.pending_data_line ~regs:fr.regs ~stack_base:t.stack_base
          ~sp:t.sp ~pc:(Image.pc fr.code ~blk:fr.blk ~idx:i) ~addr:a
          ~value:(eval fr src);
        t.pending_data_line <- -1
    | _ -> exec_justdo_store m t fr instrs (i + 1)

(* A grant hook's store may be missing from its block: the optimizer
   hoisted the grant out of a loop (O104), so the consuming store is in
   another block.  The hook then arms the grant; the consuming store
   captures its own address, so the append still lands
   append-before-store. *)
let rec exec_undo_store m (t : thread) fr (instrs : Ir.instr array) i =
  if i >= Array.length instrs then t.armed_grant <- Grant_undo
  else
    match instrs.(i) with
    | Ir.Store { space; base; off; _ } ->
        let a = resolve m t fr space base off in
        if in_pmem t space then m.proto.undo_store m.env t.writer t.log_node ~addr:a
    | _ -> exec_undo_store m t fr instrs (i + 1)

let rec exec_page_log m (t : thread) fr (instrs : Ir.instr array) i =
  if i >= Array.length instrs then t.armed_grant <- Grant_page
  else
    match instrs.(i) with
    | Ir.Store { space; base; off; _ } ->
        let a = resolve m t fr space base off in
        if in_pmem t space then log_page_once m t (Page_log.page_of a)
    | _ -> exec_page_log m t fr instrs (i + 1)

let exec_txn_begin m (t : thread) fr =
  let blk = fr.blk and idx = fr.idx in
  let retries = match t.txn with Some tx -> tx.retries | None -> 0 in
  (* Mnemosyne's FASE is the transaction: no Hfase_enter is
     instrumented, so the dynamic FASE id is assigned here (each retry
     counts as a fresh FASE — it re-pays the logging). *)
  t.fase_id <- m.next_fase_id;
  m.next_fase_id <- m.next_fase_id + 1;
  if obs_active m then begin
    obs_context m ~tid:t.tid ~fase:t.fase_id;
    emit m Ido_obs.Obs.Fase_enter
  end;
  m.proto.txn_begin t.writer t.log_node;
  Lineset.reset t.txn_reads;
  t.txn <-
    Some
      {
        start_version = m.commit_version;
        reads = t.txn_reads;
        writes = Int_tbl.create 16;
        write_order = Vec.create ();
        snap_regs = Bytes.copy fr.regs;
        snap_blk = blk;
        snap_idx = idx;
        retries;
      };
  t.in_fase <- true;
  cost t (3 * (lat m).Latency.alu)

let exec_txn_commit m (t : thread) _fr =
  match t.txn with
  | None -> vm_error "txn_commit without transaction"
  | Some txn ->
      (* Validate the read set against commits since txn start. *)
      let nreads = Lineset.cardinal txn.reads in
      let rec valid i =
        i >= nreads
        || (not (written_since m txn.start_version (Lineset.nth txn.reads i)))
           && valid (i + 1)
      in
      let valid = valid 0 in
      cost t (nreads * (lat m).Latency.alu);
      if not valid then begin
        let txn = { txn with retries = txn.retries + 1 } in
        abort_txn m t txn
      end
      else begin
        (* Global commit serialization (the runtime synchronization the
           paper blames for Mnemosyne's scaling ceiling).  The token is
           held for the commit work only; waiting time must not feed
           back into the token or delays compound. *)
        let w = t.writer in
        let pre = Pwriter.take_cost w in
        let start = imax (t.clock + pre) m.commit_token_free_at in
        m.proto.txn_commit w t.log_node ~written:txn.write_order;
        m.commit_version <- m.commit_version + 1;
        Vec.iter
          (fun a -> set_write_version m a m.commit_version)
          txn.write_order;
        let work = Pwriter.take_cost w in
        m.commit_token_free_at <- start + work;
        (* Charge the thread: earlier step cost, token wait, work. *)
        Pwriter.add_cost w (start - t.clock + work);
        t.txn <- None;
        t.in_fase <- false;
        if obs_active m then begin
          emit m Ido_obs.Obs.Fase_exit;
          obs_context m ~tid:t.tid ~fase:(-1)
        end;
        t.fase_id <- -1
      end

let exec_hook m (t : thread) fr = function
  | Ir.Hregion rh -> exec_region_boundary m t fr rh
  | Ir.Hfase_enter -> exec_fase_enter m t fr
  | Ir.Hfase_exit -> exec_fase_exit m t fr
  | Ir.Hlock_acquired ->
      t.armed_grant <- Grant_none;
      m.proto.lock_acquired m.env t.writer t.log_node ~holder:t.last_lock ~epoch:t.epoch
  | Ir.Hlock_release { outermost } ->
      t.armed_grant <- Grant_none;
      m.proto.lock_release m.env t.writer t.log_node
        ~holder:(eval_int fr (upcoming_unlock fr)) ~outermost
  | Ir.Hjustdo_store -> exec_justdo_store m t fr (block fr).instrs (fr.idx + 1)
  | Ir.Hundo_store -> exec_undo_store m t fr (block fr).instrs (fr.idx + 1)
  | Ir.Hredo_store -> cost t (lat m).Latency.alu
  | Ir.Htxn_begin -> exec_txn_begin m t fr
  | Ir.Htxn_commit -> exec_txn_commit m t fr
  | Ir.Hpage_log -> exec_page_log m t fr (block fr).instrs (fr.idx + 1)
  | Ir.Hdurable_commit ->
      t.armed_grant <- Grant_none;
      m.proto.durable_commit m.env t.writer t.log_node ~lines:t.fase_lines
        ~reopen:t.in_fase;
      Int_tbl.reset t.touched_pages

(* ------------------------------------------------------------------ *)
(* Run queue *)

(* The runnable threads in a binary min-heap on (clock, rank): the top
   is the earliest clock, and among equal clocks the first thread in
   spawn order.  Heap slots hold ranks and clocks in two [int] arrays,
   so moving an entry writes no pointer.  Both sifts carry the entry
   being placed and move the others into the hole it leaves. *)
let[@inline] runq_set m i rank clock =
  m.runq_rank.(i) <- rank;
  m.runq_clock.(i) <- clock

let rec runq_sift_up m i rank clock =
  if i = 0 then runq_set m 0 rank clock
  else
    let p = (i - 1) / 2 in
    let pc = m.runq_clock.(p) in
    if clock < pc || (clock = pc && rank < m.runq_rank.(p)) then begin
      runq_set m i m.runq_rank.(p) pc;
      runq_sift_up m p rank clock
    end
    else runq_set m i rank clock

let rec runq_sift_down m i rank clock =
  let l = (2 * i) + 1 and n = m.runq_len in
  if l >= n then runq_set m i rank clock
  else
    let c =
      if l + 1 < n then
        (* Which child is earlier, without a branch on the clocks:
           they are as often one way as the other. *)
        let cl = m.runq_clock.(l) and cr = m.runq_clock.(l + 1) in
        l
        + (Bool.to_int (cr < cl)
          lor (Bool.to_int (cr = cl)
              land Bool.to_int (m.runq_rank.(l + 1) < m.runq_rank.(l))))
      else l
    in
    let cc = m.runq_clock.(c) in
    if cc < clock || (cc = clock && m.runq_rank.(c) < rank) then begin
      runq_set m i m.runq_rank.(c) cc;
      runq_sift_down m c rank clock
    end
    else runq_set m i rank clock

let runq_push m rank clock =
  let i = m.runq_len in
  if i = Array.length m.runq_rank then begin
    let grow a = Array.append a (Array.make (Stdlib.max 8 i) 0) in
    m.runq_rank <- grow m.runq_rank;
    m.runq_clock <- grow m.runq_clock
  end;
  m.runq_len <- i + 1;
  runq_sift_up m i rank clock

(* The earliest clock below the top: the burst horizon. *)
let runq_next_clock m =
  match m.runq_len with
  | 0 | 1 -> max_int
  | 2 -> m.runq_clock.(1)
  | _ -> imin m.runq_clock.(1) m.runq_clock.(2)

(* Re-place the top at a new clock, or drop it. *)
let runq_requeue_top m clock = runq_sift_down m 0 m.runq_rank.(0) clock

let runq_drop_top m =
  let n = m.runq_len - 1 in
  m.runq_len <- n;
  if n > 0 then runq_sift_down m 0 m.runq_rank.(n) m.runq_clock.(n)

(* Rank every thread by its position in [threads] and queue the
   runnable ones. *)
let runq_build m =
  let n = Vec.length m.threads in
  m.runq_len <- 0;
  if n > 0 && Array.length m.sched < n then
    m.sched <- Array.make n (Vec.get m.threads 0);
  for i = 0 to n - 1 do
    let t = Vec.get m.threads i in
    m.sched.(i) <- t;
    t.rank <- i;
    if t.status = Runnable then runq_push m i t.clock
  done

(* ------------------------------------------------------------------ *)
(* Instructions *)

(* Inlined into [exec_instr], so neither operand nor result is boxed;
   it therefore has no local closures, which would stop inlining. *)
let[@inline] binop_eval op (a : int64) (b : int64) =
  let open Int64 in
  match (op : Ir.binop) with
  | Add -> add a b
  | Sub -> sub a b
  | Mul -> mul a b
  | Div -> if b = 0L then 0L else div a b
  | Rem -> if b = 0L then 0L else rem a b
  | And -> logand a b
  | Or -> logor a b
  | Xor -> logxor a b
  | Shl -> shift_left a (to_int b land 63)
  | Shr -> shift_right_logical a (to_int b land 63)
  | Eq -> if a = b then 1L else 0L
  | Ne -> if a <> b then 1L else 0L
  | Lt -> if a < b then 1L else 0L
  | Le -> if a <= b then 1L else 0L
  | Gt -> if a > b then 1L else 0L
  | Ge -> if a >= b then 1L else 0L

let[@inline] justdo_penalty m (t : thread) =
  (* No register caching inside JUSTDO FASEs (Sec. I): every
     instruction's operands and result live in NVM-resident stack
     slots, costing extra memory traffic and one write-back's worth of
     NVM exposure per instruction — which is also why JUSTDO is the
     most sensitive scheme to NVM write latency (Fig. 9). *)
  if m.proto.per_store && t.in_fase then
    cost t
      ((2 * (lat m).Latency.mem) + (lat m).Latency.clwb_issue
      + (lat m).Latency.nvm_extra)

let exec_lock m (t : thread) fr op =
  let id = eval_int fr op in
  t.last_lock <- id;
  let l = lock_of m id in
  cost t (lat m).Latency.lock_op;
  if l.holder = t.tid then begin
    if listening m then emit m (Ido_obs.Obs.Lock_acquire id);
    fr.idx <- fr.idx + 1 (* recovery re-acquire / post-hand-off re-run *)
  end
  else if l.holder < 0 then begin
    if listening m then emit m (Ido_obs.Obs.Lock_acquire id);
    l.holder <- t.tid;
    fr.idx <- fr.idx + 1
  end
  else begin
    Queue.add t l.waiters;
    t.status <- Blocked
  end
(* The blocked thread stays at the Lock instruction; the releaser hands
   the lock over and re-runs it, which then takes the self-held fast
   path above. *)

let exec_unlock m (t : thread) fr op =
  let id = eval_int fr op in
  t.last_lock <- id;
  let l = lock_of m id in
  if listening m then emit m (Ido_obs.Obs.Lock_release id);
  cost t (lat m).Latency.lock_op;
  if l.holder = t.tid then begin
    if Queue.is_empty l.waiters then l.holder <- -1
    else begin
      (* Hand the lock over; the woken waiter joins the run queue but
         does not shorten the running burst. *)
      let wt = Queue.pop l.waiters in
      l.holder <- wt.tid;
      wt.clock <- imax wt.clock t.clock;
      wt.status <- Runnable;
      runq_push m wt.rank wt.clock
    end
  end
  else if l.holder >= 0 && not t.recovery_mode then
    (* A resumed region may re-execute an unlock whose original effect
       already let another thread (now also recovering) take the lock.
       Recovery mutexes are owner-checked: a non-owner unlock is a
       no-op, preserving the new holder's exclusion.  A free mutex is
       a fresh one after recovery, which is benign. *)
    vm_error "unlock of lock held by thread %d" l.holder;
  fr.idx <- fr.idx + 1

let[@inline] set_dst fr dst v = match dst with Some d -> set_reg fr d v | None -> ()

let exec_intrinsic m (t : thread) fr dst intr args =
  (match (intr : Ir.intrinsic) with
  | Rand ->
      let bound = eval_int fr (List.nth args 0) in
      let v = if bound <= 0 then 0 else Rng.int t.rng bound in
      set_dst fr dst (Int64.of_int v);
      cost t (lat m).Latency.alu
  | Thread_id ->
      set_dst fr dst (Int64.of_int t.tid);
      cost t (lat m).Latency.alu
  | Nv_alloc ->
      let n = eval_int fr (List.nth args 0) in
      let a = Region.alloc m.region n in
      set_dst fr dst (Int64.of_int a);
      cost t (lat m).Latency.alloc
  | Nv_free ->
      Region.free m.region (eval_int fr (List.nth args 0));
      cost t (lat m).Latency.alloc
  | Work -> cost t (eval_int fr (List.nth args 0))
  | Observe ->
      let v = eval fr (List.nth args 0) in
      t.observations <- v :: t.observations;
      t.ops <- t.ops + 1;
      m.total_ops <- m.total_ops + 1;
      cost t (lat m).Latency.alu
  | Root_get ->
      let slot = eval_int fr (List.nth args 0) in
      set_dst fr dst (Region.get_root m.region slot);
      cost t (lat m).Latency.mem
  | Root_set ->
      let slot = eval_int fr (List.nth args 0) in
      Region.set_root m.region slot (eval fr (List.nth args 1));
      cost t
        ((lat m).Latency.mem + (lat m).Latency.clwb_issue
        + Latency.fence_cost (lat m) ~pending:1)
  | Assert_nz ->
      if eval fr (List.nth args 0) = 0L then
        vm_error "assertion failed (thread %d)" t.tid;
      cost t (lat m).Latency.alu);
  fr.idx <- fr.idx + 1

let rec bind_args (callee : frame) fr params args =
  match (params, args) with
  | r :: params, a :: args ->
      set_reg callee r (eval fr a);
      bind_args callee fr params args
  | _ -> ()

(* [Validate] guarantees the call's arity matches the callee's. *)
let exec_call m (t : thread) fr dst args =
  let code = Image.callee fr.code ~blk:fr.blk ~idx:fr.idx in
  let func = Image.ir code in
  let callee =
    new_frame code ~blk:0 ~idx:0 ~regs:(new_regs func.nregs) ~ret_to:dst
      ~saved_sp:t.sp
  in
  bind_args callee fr func.params args;
  cost t (lat m).Latency.call;
  fr.idx <- fr.idx + 1;
  t.frames <- callee :: t.frames

let exec_ret m (t : thread) fr value =
  cost t (lat m).Latency.call;
  match t.frames with
  | [ _ ] -> t.status <- Done
  | _ :: (caller :: _ as rest) ->
      t.sp <- fr.saved_sp;
      (match (fr.ret_to, value) with
      | Some d, Some op -> set_reg caller d (eval fr op)
      | Some d, None -> set_reg caller d 0L
      | None, _ -> ());
      t.frames <- rest
  | [] -> vm_error "return with no frame"

let exec_instr m (t : thread) fr instr =
  match (instr : Ir.instr) with
  | Bin (d, op, a, b) ->
      set_reg fr d (binop_eval op (eval fr a) (eval fr b));
      cost t (lat m).Latency.alu;
      justdo_penalty m t;
      fr.idx <- fr.idx + 1
  | Mov (d, a) ->
      set_reg fr d (eval fr a);
      cost t (lat m).Latency.alu;
      justdo_penalty m t;
      fr.idx <- fr.idx + 1
  | Load { dst; space; base; off } ->
      let a = resolve m t fr space base off in
      if load_reg m t fr ~pmem:(in_pmem t space) a dst then begin
        justdo_penalty m t;
        fr.idx <- fr.idx + 1
      end
      else t.rewound <- false
  | Store { space; base; off; src } ->
      let a = resolve m t fr space base off in
      do_store m t fr ~pmem:(in_pmem t space) a src;
      justdo_penalty m t;
      fr.idx <- fr.idx + 1
  | Alloca (d, n) ->
      set_reg fr d (Int64.of_int (t.stack_base + t.sp));
      t.sp <- t.sp + n;
      if t.sp > m.config.stack_words then vm_error "stack overflow";
      cost t (lat m).Latency.alu;
      fr.idx <- fr.idx + 1
  | Lock op -> exec_lock m t fr op
  | Unlock op -> exec_unlock m t fr op
  | Durable_begin | Durable_end ->
      cost t (lat m).Latency.alu;
      fr.idx <- fr.idx + 1
  | Call { dst; args; _ } -> exec_call m t fr dst args
  | Intrinsic { dst; intr; args } -> exec_intrinsic m t fr dst intr args
  | Hook h ->
      exec_hook m t fr h;
      (* A failed commit rewinds the frame to the Htxn_begin slot;
         advancing would skip it. *)
      if t.rewound then t.rewound <- false else fr.idx <- fr.idx + 1

let exec_term m (t : thread) fr term =
  cost t (lat m).Latency.branch;
  match (term : Ir.terminator) with
  | Br b ->
      fr.blk <- b;
      fr.idx <- 0
  | Cbr (c, bt, bf) ->
      let b = if eval fr c <> 0L then bt else bf in
      fr.blk <- b;
      fr.idx <- 0
  | Ret v -> exec_ret m t fr v

(* ------------------------------------------------------------------ *)
(* Scheduler *)

let step m (t : thread) =
  (* Pmem-level obs events carry no thread identity of their own; tag
     them with the thread about to execute.  Skipped entirely when no
     sink is installed — the disabled path costs one comparison. *)
  if obs_active m then obs_context m ~tid:t.tid ~fase:t.fase_id;
  let fr = current_frame t in
  let blk = block fr in
  (match m.tracer with
  | Some trace ->
      let what =
        if fr.idx < Array.length blk.instrs then
          Format.asprintf "%a" Ir.pp_instr blk.instrs.(fr.idx)
        else Format.asprintf "%a" Ir.pp_terminator blk.term
      in
      trace
        (Printf.sprintf "t%d @%-9d %s.%d.%d%s  %s" t.tid t.clock
           (Image.name fr.code)
           fr.blk fr.idx
           (if t.in_fase then " [FASE]" else "")
           what)
  | None -> ());
  if fr.idx < Array.length blk.instrs then exec_instr m t fr blk.instrs.(fr.idx)
  else exec_term m t fr blk.term;
  t.steps <- t.steps + 1;
  let w = t.writer in
  t.clock <- t.clock + w.Pwriter.cost;
  w.Pwriter.cost <- 0

let run ?until ?(max_steps = max_int) m : run_outcome =
  runq_build m;
  let steps = ref 0 in
  let rec loop () =
    if !steps >= max_steps then `Max_steps
    else if m.runq_len = 0 then
      if Vec.exists (fun t -> t.status = Blocked) m.threads then `Deadlock
      else `Idle
    else
      let t = m.sched.(m.runq_rank.(0)) in
      match until with
      | Some u when t.clock >= u -> `Until
      | _ ->
          (* The burst horizon: the earliest clock among the other
             runnable threads.  The running thread keeps the top slot,
             pinned at [min_int] so that a thread woken during the burst
             queues below it without shortening the burst. *)
          let horizon = runq_next_clock m in
          m.runq_clock.(0) <- min_int;
          let limit =
            match until with Some u -> imin horizon u | None -> horizon
          in
          (* Burst while this thread stays the earliest. *)
          while t.status = Runnable && t.clock <= limit && !steps < max_steps do
            step m t;
            incr steps
          done;
          if t.status = Runnable then runq_requeue_top m t.clock
          else runq_drop_top m;
          loop ()
  in
  loop ()

(* Drop finished threads from the scheduler's table.  [run]'s queue
   set-up and [max_clock] walk every thread record ever spawned,
   so a driver that spawns one thread per request (the serving layer)
   would otherwise go quadratic in the request count.  The clock floor preserves [max_clock] — and with it
   the "spawns begin now" invariant — when the reaped threads were the
   ones carrying the latest time. *)
let reap m =
  m.clock_floor <- max_clock m;
  (* Recycle the reaped threads' stacks and log arenas, but only at a
     quiescent point (every thread Done): a completed FASE's undo
     records may still be needed by Atlas's happens-before cascade
     while any FASE is open, and quiescence is the one point where no
     future rollback can reach a reaped log (all its sequence numbers
     predate any FASE still to come).  This keeps both memory and the
     recovery-time log scan proportional to the live thread count —
     without it a spawn-per-request driver exhausts the region. *)
  let quiescent =
    Vec.fold_left (fun acc t -> acc && t.status = Done) true m.threads
  in
  if quiescent then
    Vec.iter
      (fun t ->
        m.free_stacks <- t.stack_base :: m.free_stacks;
        if t.log_node <> 0 then
          m.free_log_nodes <- t.log_node :: m.free_log_nodes)
      m.threads;
  Vec.filter_in_place (fun t -> t.status <> Done) m.threads

let crash m =
  m.crashed <- true;
  if obs_active m then begin
    obs_context m ~tid:(-1) ~fase:(-1);
    emit m Ido_obs.Obs.Crash
  end;
  (* On an NV-cache machine the cache contents are themselves
     persistent: a power failure loses nothing that was stored. *)
  if m.config.latency.Latency.nv_caches then Pmem.flush_all m.pmem;
  Pmem.crash m.pmem;
  Vec.iter (fun t -> t.status <- Done) m.threads;
  Vec.clear m.threads;
  drop_volatile m

(* Everything [crash] keeps: the persistence domain and the machine's
   counters and generator.  The rest is volatile and [crash] discards
   it. *)
type crash_image = {
  ci_pmem : Pmem.image;
  ci_rng : Rng.t;
  ci_clock_floor : Timebase.ns;
  ci_next_tid : int;
  ci_seq : int;
  ci_commit_version : int;
  ci_total_ops : int;
  ci_next_fase_id : int;
}

let crash_image m =
  {
    ci_pmem =
      Pmem.crash_image ~cache_survives:m.config.latency.Latency.nv_caches
        m.pmem;
    ci_rng = Rng.copy m.rng;
    ci_clock_floor = m.clock_floor;
    ci_next_tid = m.next_tid;
    ci_seq = m.env.seq;
    ci_commit_version = m.commit_version;
    ci_total_ops = m.total_ops;
    ci_next_fase_id = m.next_fase_id;
  }

let restore_crashed m ci =
  quiesce m;
  Rng.assign ~into:m.rng ci.ci_rng;
  Pmem.restore_crashed m.pmem ci.ci_pmem;
  Vec.truncate m.threads;
  drop_volatile m;
  m.clock_floor <- ci.ci_clock_floor;
  m.next_tid <- ci.ci_next_tid;
  m.env.seq <- ci.ci_seq;
  m.commit_version <- ci.ci_commit_version;
  Cdf.clear m.stores_per_region;
  Cdf.clear m.livein_per_region;
  m.total_ops <- ci.ci_total_ops;
  m.crashed <- true;
  m.next_fase_id <- ci.ci_next_fase_id

(* Everything of an idle machine with an empty overlay: the crash image
   (whose pages then hold the whole memory), plus the volatile state a
   crash discards.  The threads have all finished, so no waiter sits in
   the lock table.  A finished thread never writes again, but its
   record still counts (clocks, ranks, recycled stacks and log nodes):
   the image keeps each record with its writer bound to a one-word
   placeholder memory, so it does not keep the imaged machine's memory
   alive, and every restore copies the records, writers rebound to the
   machine's memory, because [run] re-ranks finished threads too. *)
type boot_image = {
  bi_crash : crash_image;
  bi_vmem : Vmem.t;
  bi_locks : lock_table;
  bi_write_versions : version_table;
  bi_commit_token_free_at : Timebase.ns;
  bi_threads : thread array;
  bi_free_stacks : int list;
  bi_free_log_nodes : int list;
  bi_stores_per_region : Cdf.t;
  bi_livein_per_region : Cdf.t;
}

let copy_locks tb =
  {
    ids = Array.copy tb.ids;
    mutexes =
      Array.map
        (fun l ->
          if l == no_lock then no_lock
          else { holder = l.holder; waiters = Queue.create () })
        tb.mutexes;
    count = tb.count;
  }

let copy_versions vt =
  { addrs = Array.copy vt.addrs; versions = Array.copy vt.versions;
    written = vt.written }

let boot_image m =
  if
    m.crashed
    || Vec.exists (fun t -> t.status <> Done) m.threads
    || Pmem.dirty_lines m.pmem > 0
    || Pmem.pending_flushes m.pmem > 0
  then invalid_arg "Vm.boot_image: machine is not idle and flushed";
  {
    bi_crash = crash_image m;
    bi_vmem = Vmem.copy m.vmem;
    bi_locks = copy_locks m.locks;
    bi_write_versions = copy_versions m.write_versions;
    bi_commit_token_free_at = m.commit_token_free_at;
    bi_threads =
      (let placeholder = Pmem.create ~rng:(Rng.create 0) 1 in
       Array.of_list
         (List.map
            (fun t ->
              { t with writer = Pwriter.create placeholder m.config.latency })
            (Vec.to_list m.threads)));
    bi_free_stacks = m.free_stacks;
    bi_free_log_nodes = m.free_log_nodes;
    bi_stores_per_region = Cdf.copy m.stores_per_region;
    bi_livein_per_region = Cdf.copy m.livein_per_region;
  }

let restore_boot m bi =
  restore_crashed m bi.bi_crash;
  m.crashed <- false;
  m.vmem <- Vmem.copy bi.bi_vmem;
  m.locks <- copy_locks bi.bi_locks;
  m.write_versions <- copy_versions bi.bi_write_versions;
  m.commit_token_free_at <- bi.bi_commit_token_free_at;
  Array.iter
    (fun t ->
      Vec.push m.threads
        { t with writer = Pwriter.create m.pmem m.config.latency })
    bi.bi_threads;
  m.free_stacks <- bi.bi_free_stacks;
  m.free_log_nodes <- bi.bi_free_log_nodes;
  Cdf.assign ~into:m.stores_per_region bi.bi_stores_per_region;
  Cdf.assign ~into:m.livein_per_region bi.bi_livein_per_region
