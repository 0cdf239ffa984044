(* Post-crash recovery (Sec. III-C for iDO): one driver for every
   scheme, running the recovery half of its protocol record
   ({!Protocol.recovery}).

   Recovery time is reported in simulated nanoseconds.  The
   resumption schemes pay a per-process constant — mapping the
   persistent region into a fresh address space plus creating one
   recovery thread per log — and then the (microsecond-scale) tails of
   the interrupted FASEs, which the VM actually executes.  The rollback
   schemes pay a restart constant and their executed log work; Atlas's
   also charges every record it feeds to the happens-before analysis.
   These constants reproduce the shape of Table I: roughly one second
   for iDO at 64 threads regardless of run length, versus Atlas time
   growing linearly in the log volume. *)

open Ido_util
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

(* Process restart constants (simulated).  The resume half pays the
   region mapping and one thread creation per resumed FASE, which
   dominate iDO recovery (Sec. V-D); the rollback half pays a fixed
   base. *)
let map_region_ns = Timebase.ms 300
let thread_create_ns = Timebase.ms 11
let atlas_base_ns = Timebase.ms 50
let atlas_per_record_ns = Protocol.atlas_per_record_ns

(* Resume one interrupted FASE as a fresh recovery thread positioned
   at the saved recovery point with the saved register file. *)
let resume_thread m ~node (r : Protocol.resume) =
  let tid = m.next_tid in
  m.next_tid <- tid + 1;
  (* The resumed tail is a fresh dynamic FASE for attribution. *)
  let fase = m.next_fase_id in
  m.next_fase_id <- fase + 1;
  let fname, (pos : Ido_ir.Ir.pos) = Image.pos_of_pc m.image r.pc in
  let code = Image.entry m.image fname in
  let func = Image.ir code in
  let frame_regs = new_regs func.nregs in
  for i = 0 to min (Array.length r.regs) func.nregs - 1 do
    Bytes.set_int64_ne frame_regs (8 * i) r.regs.(i)
  done;
  let base, sp = r.stack in
  let t =
    new_thread m ~tid
      ~frame:(new_frame code ~blk:pos.blk ~idx:pos.idx ~regs:frame_regs ~ret_to:None ~saved_sp:0)
      ~stack_base:base ~stack_in_pmem:true ~log_node:node ~recovery_mode:true
  in
  t.sp <- sp;
  t.in_fase <- true;
  t.fase_id <- fase;
  Option.iter (fun e -> t.epoch <- e) r.epoch;
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
    r.held;
  Vec.push m.threads t

let run_recovery_threads m =
  match Interp.run m with
  | `Idle -> ()
  | `Deadlock -> failwith "recovery deadlocked"
  | `Until | `Max_steps -> failwith "recovery did not finish"

let recover m =
  (* Machine-level recovery traffic (log scans, undo write-backs) is
     attributed to no thread/FASE; resumed threads re-tag the context
     themselves as they run. *)
  if Option.is_some m.obs then obs_context m ~tid:(-1) ~fase:(-1);
  let scheme = m.config.scheme in
  let step what = emit m (Ido_obs.Obs.Recovery_step { scheme = Scheme.name scheme; what }) in
  let resumed, (c : Protocol.counts), simulated_time =
    match m.proto.recovery with
    | Protocol.No_recovery -> (0, Protocol.zero, 0)
    | Protocol.Resume read ->
        let pm = m.pmem and resumed = ref 0 in
        Lognode.iter pm m.region (fun node ->
            Option.iter
              (fun (r : Protocol.resume) ->
                resume_thread m ~node r;
                step
                  (Printf.sprintf "resume tid=%d pc=%d%s" (Lognode.tid pm node) r.pc
                     (match r.epoch with Some e -> Printf.sprintf " epoch=%d" e | None -> ""));
                incr resumed)
              (read pm node));
        (* Barrier: all recovery threads exist before any runs, then
           each executes to the end of its FASE. *)
        run_recovery_threads m;
        (!resumed, Protocol.zero, map_region_ns + (!resumed * thread_create_ns) + max_clock m)
    | Protocol.Rollback roll_back ->
        let w = Pwriter.create m.pmem m.config.latency in
        let c = roll_back ~step w m.region in
        (0, c, atlas_base_ns + Pwriter.take_cost w)
  in
  m.crashed <- false;
  Ido_region.Region.mark_clean m.region;
  {
    scheme;
    fases_resumed = resumed;
    records_scanned = c.records_scanned;
    writes_undone = c.writes_undone;
    fases_rolled_back = c.fases_rolled_back;
    pages_restored = c.pages_restored;
    txns_replayed = c.txns_replayed;
    simulated_time;
  }
