(* Post-crash recovery, dispatched on the scheme (Sec. III-C for iDO).

   Recovery time is reported in simulated nanoseconds.  The
   resumption schemes pay a per-process constant — mapping the
   persistent region into a fresh address space plus creating one
   recovery thread per log — and then the (microsecond-scale) tails of
   the interrupted FASEs, which the VM actually executes.  Atlas pays
   the log traversal: every record is read and fed to the
   happens-before analysis.  These constants reproduce the shape of
   Table I: roughly one second for iDO at 64 threads regardless of run
   length, versus Atlas time growing linearly in the log volume. *)

open Ido_util
open Ido_ir
open Ido_runtime
open State

type stats = {
  scheme : Scheme.t;
  fases_resumed : int;  (** interrupted FASEs run to completion *)
  records_scanned : int;
  writes_undone : int;
  fases_rolled_back : int;
  pages_restored : int;
  txns_replayed : int;
  simulated_time : Timebase.ns;
}

let empty scheme =
  {
    scheme;
    fases_resumed = 0;
    records_scanned = 0;
    writes_undone = 0;
    fases_rolled_back = 0;
    pages_restored = 0;
    txns_replayed = 0;
    simulated_time = 0;
  }

(* Process restart constants (simulated).  Mapping the region and
   spawning recovery threads dominates iDO recovery (Sec. V-D). *)
let map_region_ns = Timebase.ms 300
let thread_create_ns = Timebase.ms 11
let atlas_base_ns = Timebase.ms 50
let atlas_per_record_ns = 75  (* happens-before graph + sort, per record *)

(* Resume one interrupted FASE as a fresh recovery thread positioned
   at the saved recovery point with the saved register file. *)
let resume_thread m ~node ~fname ~(pos : Ir.pos) ~regs ~stack ~held =
  let tid = m.next_tid in
  m.next_tid <- tid + 1;
  (* The resumed tail is a fresh dynamic FASE for attribution. *)
  let fase = m.next_fase_id in
  m.next_fase_id <- fase + 1;
  let code = Image.entry m.image fname in
  let func = Image.ir code in
  let frame_regs = new_regs func.nregs in
  for r = 0 to min (Array.length regs) func.nregs - 1 do
    Bytes.set_int64_ne frame_regs (8 * r) regs.(r)
  done;
  let base, sp = stack in
  let t =
    new_thread m ~tid
      ~frame:(new_frame code ~blk:pos.blk ~idx:pos.idx ~regs:frame_regs ~ret_to:None ~saved_sp:0)
      ~stack_base:base ~stack_in_pmem:true ~log_node:node ~recovery_mode:true
  in
  t.sp <- sp;
  t.in_fase <- true;
  t.fase_id <- fase;
  (* Reacquire the locks recorded in the lock_array: fresh transient
     mutexes are allocated for every indirect holder (Sec. III-B). *)
  List.iter
    (fun holder ->
      let l = lock_of m holder in
      match l.holder with
      | -1 -> l.holder <- tid
      | other ->
          failwith
            (Printf.sprintf
               "recovery: lock %d claimed by two recovery threads (%d, %d)"
               holder other tid))
    held;
  Vec.push m.threads t;
  t

(* Under iDO, a lock stamped with the pc's own epoch was acquired after
   the last persisted boundary; the segment it protected performed no
   stores, and resumption will re-acquire it in program order —
   re-acquiring it here would invert lock-ordering disciplines such as
   hand-over-hand and risk recovery deadlock. *)
let locks_to_reacquire ~pc_epoch held =
  List.filter_map
    (fun (holder, e) -> if e = pc_epoch then None else Some holder)
    held

let recovery_step m ~scheme fmt =
  Printf.ksprintf
    (fun what ->
      emit m (Ido_obs.Obs.Recovery_step { scheme; what }))
    fmt

let run_recovery_threads m =
  match Interp.run m with
  | `Idle -> ()
  | `Deadlock -> failwith "recovery deadlocked"
  | `Until | `Max_steps -> failwith "recovery did not finish"

let recover_ido m =
  let pm = m.pmem in
  let resumed = ref 0 in
  Lognode.iter pm m.region (fun node ->
      if Lognode.kind pm node = Lognode.kind_ido then begin
        let pc = Ido_log.recovery_pc pm node in
        if pc <> 0 then begin
          let fname, pos = Image.pos_of_pc m.image pc in
          let regs = Ido_log.read_all_regs pm node in
          let stack = Ido_log.sim_stack pm node in
          let pc_epoch = Ido_log.recovery_epoch pm node in
          let held =
            locks_to_reacquire ~pc_epoch (Ido_log.held_locks pm node)
          in
          let t = resume_thread m ~node ~fname ~pos ~regs ~stack ~held in
          t.epoch <- pc_epoch;
          recovery_step m ~scheme:"ido" "resume tid=%d pc=%d epoch=%d"
            (Lognode.tid pm node) pc pc_epoch;
          incr resumed
        end
      end);
  (* Barrier: all recovery threads exist before any runs (trivially
     true here), then each executes to the end of its FASE. *)
  run_recovery_threads m;
  let tail = max_clock m in
  {
    (empty Scheme.Ido) with
    fases_resumed = !resumed;
    simulated_time =
      map_region_ns + (!resumed * thread_create_ns) + tail;
  }

let recover_justdo m =
  let pm = m.pmem in
  let resumed = ref 0 in
  Lognode.iter pm m.region (fun node ->
      if Lognode.kind pm node = Lognode.kind_justdo then
        if Justdo_log.armed pm node then begin
          let pc, _addr, _v = Justdo_log.entry pm node in
          let fname, pos = Image.pos_of_pc m.image pc in
          let regs = Justdo_log.read_all_regs pm node in
          let stack = Justdo_log.sim_stack pm node in
          let held = Justdo_log.held_locks pm node in
          (* Resuming at the logged store's own position re-executes
             it with the snapshot registers, reproducing the logged
             value. *)
          ignore (resume_thread m ~node ~fname ~pos ~regs ~stack ~held);
          recovery_step m ~scheme:"justdo" "resume tid=%d pc=%d"
            (Lognode.tid pm node) pc;
          incr resumed
        end);
  run_recovery_threads m;
  let tail = max_clock m in
  {
    (empty Scheme.Justdo) with
    fases_resumed = !resumed;
    simulated_time = map_region_ns + (!resumed * thread_create_ns) + tail;
  }

let recover_atlas m =
  let w = Pwriter.create m.pmem m.config.latency in
  let st = Atlas_recovery.recover w m.region in
  recovery_step m ~scheme:"atlas" "undo scanned=%d undone=%d rolled_back=%d"
    st.Atlas_recovery.records_scanned st.Atlas_recovery.writes_undone
    st.Atlas_recovery.fases_rolled_back;
  {
    (empty Scheme.Atlas) with
    records_scanned = st.Atlas_recovery.records_scanned;
    writes_undone = st.Atlas_recovery.writes_undone;
    fases_rolled_back = st.Atlas_recovery.fases_rolled_back;
    simulated_time =
      atlas_base_ns
      + (st.Atlas_recovery.records_scanned * atlas_per_record_ns)
      + st.Atlas_recovery.cost;
  }

let recover_nvml m =
  let pm = m.pmem in
  let w = Pwriter.create pm m.config.latency in
  let undone = ref 0 and scanned = ref 0 and rolled = ref 0 in
  (* Undo each open durable region's writes, newest first. *)
  Lognode.iter pm m.region (fun node ->
      if Lognode.kind pm node = Lognode.kind_nvml then begin
        let n, writes = Atlas_recovery.undo_region w node in
        scanned := !scanned + n;
        if writes >= 0 then begin
          incr rolled;
          undone := !undone + writes;
          recovery_step m ~scheme:"nvml" "undo tid=%d writes=%d"
            (Lognode.tid pm node) writes
        end;
        Undo_log.reset w node
      end);
  {
    (empty Scheme.Nvml) with
    records_scanned = !scanned;
    writes_undone = !undone;
    fases_rolled_back = !rolled;
    simulated_time = atlas_base_ns + Pwriter.take_cost w;
  }

let recover_mnemosyne m =
  let pm = m.pmem in
  let w = Pwriter.create pm m.config.latency in
  let replayed = ref 0 in
  Lognode.iter pm m.region (fun node ->
      if Lognode.kind pm node = Lognode.kind_redo then begin
        (match Redo_log.status pm node with
        | Redo_log.Committed ->
            (* Commit mark durable: replay (idempotent). *)
            Redo_log.apply w node;
            for i = 0 to Redo_log.count pm node - 1 do
              let a, _ = Redo_log.entry pm node i in
              Pwriter.clwb w a
            done;
            Pwriter.fence w;
            recovery_step m ~scheme:"mnemosyne" "replay tid=%d entries=%d"
              (Lognode.tid pm node) (Redo_log.count pm node);
            incr replayed
        | Redo_log.Filling | Redo_log.Idle -> ());
        Redo_log.persist_status w node Redo_log.Idle
      end);
  {
    (empty Scheme.Mnemosyne) with
    txns_replayed = !replayed;
    simulated_time = atlas_base_ns + Pwriter.take_cost w;
  }

let recover_nvthreads m =
  let pm = m.pmem in
  let w = Pwriter.create pm m.config.latency in
  let pages = ref 0 and rolled = ref 0 in
  Lognode.iter pm m.region (fun node ->
      if Lognode.kind pm node = Lognode.kind_page then
        if Page_log.status_committed pm node then begin
          (* Commit mark durable but application may be partial: replay
             the copies (idempotent). *)
          let n = Page_log.apply w node in
          recovery_step m ~scheme:"nvthreads" "apply tid=%d pages=%d"
            (Lognode.tid pm node) n;
          pages := !pages + n
        end
        else if Page_log.active pm node then begin
          (* Uncommitted: the master pages were never touched. *)
          incr rolled;
          recovery_step m ~scheme:"nvthreads" "discard tid=%d"
            (Lognode.tid pm node);
          Page_log.discard w node
        end);
  {
    (empty Scheme.Nvthreads) with
    pages_restored = !pages;
    fases_rolled_back = !rolled;
    simulated_time = atlas_base_ns + Pwriter.take_cost w;
  }

let recover m =
  (* Machine-level recovery traffic (log scans, undo write-backs) is
     attributed to no thread/FASE; resumed threads re-tag the context
     themselves as they run. *)
  if Option.is_some m.obs then obs_context m ~tid:(-1) ~fase:(-1);
  let st =
    match m.config.scheme with
    | Scheme.Origin -> empty Scheme.Origin
    | Scheme.Ido -> recover_ido m
    | Scheme.Justdo -> recover_justdo m
    | Scheme.Atlas -> recover_atlas m
    | Scheme.Nvml -> recover_nvml m
    | Scheme.Mnemosyne -> recover_mnemosyne m
    | Scheme.Nvthreads -> recover_nvthreads m
  in
  m.crashed <- false;
  Ido_region.Region.mark_clean m.region;
  st
