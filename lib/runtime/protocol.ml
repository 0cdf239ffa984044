open Ido_util
open Ido_nvm

type fault =
  | Early_publish_justdo
  | Unfenced_undo_append
  | Reorder_region_writeback
  | Drop_release_fence
  | Drop_commit_fence

let names =
  [
    (Early_publish_justdo, "early-publish-justdo");
    (Unfenced_undo_append, "unfenced-undo-append");
    (Reorder_region_writeback, "reorder-region-writeback");
    (Drop_release_fence, "drop-release-fence");
    (Drop_commit_fence, "drop-commit-fence");
  ]

let faults = List.map fst names
let fault_name f = List.assoc f names
let fault_of_name s = List.find_map (fun (f, n) -> if n = s then Some f else None) names

type env = {
  mutable seq : int;
  appended : string -> int -> unit;
  coalesce : bool;
  single_fence : bool;
}

let next_seq env =
  env.seq <- env.seq + 1;
  env.seq

type sizes = { nregs : int; undo_cap : int; redo_cap : int; page_cap : int }

type resume = {
  pc : int;
  regs : int64 array;
  stack : int * int;
  held : int list;
  epoch : int option;
}

type counts = {
  records_scanned : int;
  writes_undone : int;
  fases_rolled_back : int;
  pages_restored : int;
  txns_replayed : int;
}

let zero =
  { records_scanned = 0; writes_undone = 0; fases_rolled_back = 0; pages_restored = 0;
    txns_replayed = 0 }

type recovery =
  | No_recovery
  | Resume of (Pmem.t -> Pmem.addr -> resume option)
  | Rollback of (step:(string -> unit) -> Pwriter.t -> Ido_region.Region.t -> counts)

type t = {
  create : Pwriter.t -> Ido_region.Region.t -> tid:int -> sizes -> Pmem.addr;
  rebind : Pwriter.t -> Pmem.addr -> tid:int -> unit;
  cell : Pmem.t -> Pmem.addr -> Pmem.addr -> string;
  page_copies : bool;
  per_store : bool;
  exit_hold : int;
  fase_enter : env -> Pwriter.t -> Pmem.addr -> stack_base:int -> sp:int -> unit;
  fase_exit : env -> Pwriter.t -> Pmem.addr -> last_line:int -> unit;
  lock_acquired : env -> Pwriter.t -> Pmem.addr -> holder:int -> epoch:int -> unit;
  lock_release : env -> Pwriter.t -> Pmem.addr -> holder:int -> outermost:bool -> unit;
  boundary :
    env -> Pwriter.t -> Pmem.addr -> regs:Bytes.t -> out:int list -> lines:Lineset.t ->
    epoch:int -> pc:int -> at_release:bool -> outermost:bool -> unit;
  justdo_store :
    env -> Pwriter.t -> Pmem.addr -> last_line:int -> regs:Bytes.t -> stack_base:int ->
    sp:int -> pc:int -> addr:Pmem.addr -> value:int64 -> unit;
  undo_store : env -> Pwriter.t -> Pmem.addr -> addr:Pmem.addr -> unit;
  page_log : env -> Pwriter.t -> Pmem.addr -> page:int -> int;
  redo_store : env -> Pwriter.t -> Pmem.addr -> addr:Pmem.addr -> value:int64 -> unit;
  txn_begin : Pwriter.t -> Pmem.addr -> unit;
  txn_commit : Pwriter.t -> Pmem.addr -> written:int Vec.t -> unit;
  durable_commit : env -> Pwriter.t -> Pmem.addr -> lines:Lineset.t -> reopen:bool -> unit;
  recovery : recovery;
}

(* Origin's protocol, and every other scheme's for the hooks its
   instrumentation never places. *)
let none =
  {
    create = (fun _ _ ~tid:_ _ -> 0);
    rebind = (fun _ _ ~tid:_ -> ());
    cell = (fun _ _ _ -> "header");
    page_copies = false;
    per_store = false;
    exit_hold = 0;
    fase_enter = (fun _ _ _ ~stack_base:_ ~sp:_ -> ());
    fase_exit = (fun _ _ _ ~last_line:_ -> ());
    lock_acquired = (fun _ _ _ ~holder:_ ~epoch:_ -> ());
    lock_release = (fun _ _ _ ~holder:_ ~outermost:_ -> ());
    boundary = (fun _ _ _ ~regs:_ ~out:_ ~lines:_ ~epoch:_ ~pc:_ ~at_release:_ ~outermost:_ -> ());
    justdo_store =
      (fun _ _ _ ~last_line:_ ~regs:_ ~stack_base:_ ~sp:_ ~pc:_ ~addr:_ ~value:_ -> ());
    undo_store = (fun _ _ _ ~addr:_ -> ());
    page_log = (fun _ _ _ ~page:_ -> 0);
    redo_store = (fun _ _ _ ~addr:_ ~value:_ -> ());
    txn_begin = (fun _ _ -> ());
    txn_commit = (fun _ _ ~written:_ -> ());
    durable_commit = (fun _ _ _ ~lines:_ ~reopen:_ -> ());
    recovery = No_recovery;
  }

(* [f] folded over the region's log nodes of [kind], in region order. *)
let fold_nodes pm region kind f acc =
  let acc = ref acc in
  Lognode.iter pm region (fun node -> if Lognode.kind pm node = kind then acc := f !acc node);
  !acc

(* Write back the tracked dirty lines in first-store order (the set is
   already deduplicated, so each member is one clwb): deterministic by
   construction, and allocation-free on the per-boundary hot path. *)
let flush_lines w lines =
  for i = 0 to Lineset.cardinal lines - 1 do
    Pwriter.clwb w (Lineset.nth lines i * Pmem.words_per_line)
  done;
  Lineset.reset lines

(* JUSTDO: the previous store's line, durable before its log entry is
   overwritten (the second fence JUSTDO pays per store on
   volatile-cache machines). *)
let flush_last_line w line =
  if line >= 0 then begin
    Pwriter.clwb w (line * Pmem.words_per_line);
    Pwriter.fence w
  end

(* The two-fence ablation of iDO's lock records: JUSTDO's intention log
   plus ownership log. *)
let second_lock_fence env w =
  if not env.single_fence then begin
    let lat = Pwriter.latency w in
    Pwriter.add_cost w (lat.Latency.mem + lat.Latency.clwb_issue);
    Pwriter.fence w
  end

(* iDO (Sec. III): region boundaries persist the OutputSet and fence it
   before recovery_pc moves; lock records are stores and write-backs
   whose one fence is the next boundary's or the release's own. *)
let ido ~fault =
  let reorder = fault = Some Reorder_region_writeback in
  let release_fence = fault <> Some Drop_release_fence in
  {
    none with
    create = (fun w region ~tid s -> Ido_log.create w region ~tid ~nregs:s.nregs);
    rebind = Ido_log.rebind;
    cell = Ido_log.cell;
    fase_enter =
      (fun _ w node ~stack_base ~sp ->
        Ido_log.set_sim_stack (Pwriter.pmem w) node ~base:stack_base ~sp);
    fase_exit =
      (fun _ w node ~last_line:_ ->
        (* Lock-based FASEs: the outermost release already cleared and
           fenced the recovery pc.  Durable regions reach here with the
           pc still armed. *)
        if Ido_log.recovery_pc (Pwriter.pmem w) node <> 0 then begin
          Ido_log.set_recovery_pc w node ~epoch:0 0;
          Pwriter.fence w
        end);
    lock_acquired =
      (fun env w node ~holder ~epoch ->
        (* Stamped with the current epoch so recovery knows whether the
           acquisition precedes the persisted boundary.  Lock record:
           packed holder word + bitmap word. *)
        env.appended "ido-lock" 16;
        Ido_log.record_acquire w node ~holder ~epoch;
        if not env.single_fence then Pwriter.fence w;
        second_lock_fence env w);
    lock_release =
      (fun env w node ~holder ~outermost ->
        (* Clear the lock record; an outermost release also clears the
           recovery pc (the FASE's outputs were fenced by the preceding
           boundary, so after this fence the FASE is complete up to the
           unlock, which a crash performs implicitly by discarding the
           transient mutex).  One fence, durable before the unlock
           executes — closing the double-claim window. *)
        env.appended "ido-lock" 16;
        Ido_log.record_release w node ~holder;
        if outermost then Ido_log.set_recovery_pc w node ~epoch:0 0;
        if release_fence then Pwriter.fence w;
        second_lock_fence env w);
    boundary =
      (fun env w node ~regs ~out ~lines ~epoch ~pc ~at_release ~outermost ->
        (* Step 1 (Sec. III-A): persist the OutputSet and the region's
           dirty lines. *)
        env.appended "intrf" (8 * List.length out);
        Ido_log.write_regs w node ~coalesce:env.coalesce regs out;
        if not reorder then flush_lines w lines;
        Pwriter.fence w;
        if reorder then flush_lines w lines;
        (* Step 2: advance recovery_pc to this boundary.  When a release
           record immediately follows, its fence carries the pc update
           (and an outermost release supersedes it with pc := 0). *)
        if not (at_release && outermost) then
          Ido_log.set_recovery_pc w node ~epoch pc;
        if not at_release then Pwriter.fence w);
    recovery =
      Resume
        (fun pm node ->
          let pc = if Lognode.kind pm node = Lognode.kind_ido then Ido_log.recovery_pc pm node else 0 in
          if pc = 0 then None
          else
            let regs = Ido_log.read_all_regs pm node in
            let stack = Ido_log.sim_stack pm node in
            let epoch = Ido_log.recovery_epoch pm node in
            (* A lock stamped with the pc's own epoch was acquired after
               the last persisted boundary; the segment it protected
               performed no stores, and resumption will re-acquire it in
               program order — re-acquiring it here would invert
               lock-ordering disciplines such as hand-over-hand and risk
               recovery deadlock. *)
            let held =
              List.filter_map
                (fun (holder, e) -> if e = epoch then None else Some holder)
                (Ido_log.held_locks pm node)
            in
            Some { pc; regs; stack; held; epoch = Some epoch });
  }

(* JUSTDO: a persisted (pc, addr, value) entry before every FASE store;
   two fences per lock operation. *)
let justdo ~fault =
  let arm = if fault = Some Early_publish_justdo then Some false else None in
  {
    none with
    create = (fun w region ~tid s -> Justdo_log.create w region ~tid ~nregs:s.nregs);
    rebind = Justdo_log.rebind;
    cell = Justdo_log.cell;
    per_store = true;
    fase_enter =
      (fun _ w node ~stack_base ~sp ->
        Justdo_log.set_sim_stack (Pwriter.pmem w) node ~base:stack_base ~sp);
    fase_exit =
      (fun _ w node ~last_line ->
        flush_last_line w last_line;
        Justdo_log.clear w node);
    lock_acquired =
      (fun env w node ~holder ~epoch:_ ->
        (* Intention word + slot word + bitmap word. *)
        env.appended "justdo-lock" 24;
        Justdo_log.record_acquire w node ~holder);
    lock_release =
      (fun env w node ~holder ~outermost:_ ->
        env.appended "justdo-lock" 24;
        Justdo_log.record_release w node ~holder);
    justdo_store =
      (fun env w node ~last_line ~regs ~stack_base ~sp ~pc ~addr ~value ->
        flush_last_line w last_line;
        (* Simulator-side snapshot: memory-resident state in real JUSTDO.
           It must land before [log_store] arms the new pc so the whole
           resumption tuple (pc, registers, stack) changes in one
           eventless window — a crash on either side observes a
           consistent tuple. *)
        let pm = Pwriter.pmem w in
        Justdo_log.snapshot_regs pm node regs;
        Justdo_log.set_sim_stack pm node ~base:stack_base ~sp;
        (* Resumption tuple: pc + addr + value. *)
        env.appended "justdo" 24;
        Justdo_log.log_store ?arm w node ~pc ~addr ~value);
    recovery =
      Resume
        (fun pm node ->
          if Lognode.kind pm node <> Lognode.kind_justdo || not (Justdo_log.armed pm node)
          then None
          else
            (* Resuming at the logged store's own position re-executes
               it with the snapshot registers, reproducing the logged
               value. *)
            let pc, _addr, _v = Justdo_log.entry pm node in
            let regs = Justdo_log.read_all_regs pm node in
            let stack = Justdo_log.sim_stack pm node in
            Some { pc; regs; stack; held = Justdo_log.held_locks pm node; epoch = None });
  }

(* One Undo_log record is [kind; a; b; seq]. *)
let undo_record_bytes = 8 * Undo_log.record_words

(* The undo ring: Atlas (lock-inferred FASEs, lock records, a global
   token at FASE end) and NVML (durable regions, truncated at commit). *)
let undo ~kind ~fault =
  let write_ahead = if fault = Some Unfenced_undo_append then Some false else None in
  {
    none with
    create =
      (fun w region ~tid s -> Undo_log.create w region ~kind ~tid ~cap_records:s.undo_cap);
    rebind = Undo_log.rebind;
    cell = Undo_log.cell;
    fase_enter =
      (fun env w node ~stack_base:_ ~sp:_ ->
        (* Begin/end records need no fence of their own: they become
           durable with the next fenced record (or the commit flush). *)
        env.appended "undo" undo_record_bytes;
        Undo_log.append_unfenced w node Undo_log.Fase_begin ~a:0L ~b:0L
          ~seq:(next_seq env));
    undo_store =
      (fun env w node ~addr ->
        let old = Pwriter.load w addr in
        env.appended "undo" undo_record_bytes;
        Undo_log.log_write ?write_ahead w node ~addr ~old ~seq:(next_seq env));
    durable_commit =
      (fun _ w _ ~lines ~reopen:_ ->
        (* Flush the FASE's delayed data write-backs (Atlas defers them
           to FASE end; Sec. V's description). *)
        flush_lines w lines;
        Pwriter.fence w);
  }

let atlas_per_record_ns = 75

(* Scan every log, roll back the happens-before closure of the
   interrupted FASEs, truncate the logs. *)
let atlas_rollback ~step w region =
  let pm = Pwriter.pmem w in
  let nodes = fold_nodes pm region Lognode.kind_atlas (fun acc node -> node :: acc) [] in
  let l = Atlas_recovery.scan pm (List.rev nodes) in
  let records = Atlas_recovery.records l in
  (* One cache-line read per record, and the happens-before graph and
     sort. *)
  Pwriter.add_cost w (records * (((Pwriter.latency w).Latency.mem * 4) + atlas_per_record_ns));
  let marked = Atlas_recovery.rollback_set l in
  let undone = Atlas_recovery.undo w l marked in
  List.iter (Undo_log.reset w) nodes;
  let rolled = Array.fold_left (fun n b -> if b then n + 1 else n) 0 marked in
  step (Printf.sprintf "undo scanned=%d undone=%d rolled_back=%d" records undone rolled);
  { zero with records_scanned = records; writes_undone = undone; fases_rolled_back = rolled }

let atlas ~fault =
  let append env w node tag ~a =
    env.appended "undo" undo_record_bytes;
    Undo_log.append w node tag ~a ~b:0L ~seq:(next_seq env)
  in
  {
    (undo ~kind:Lognode.kind_atlas ~fault) with
    exit_hold = 200;
    lock_acquired =
      (fun env w node ~holder ~epoch:_ ->
        append env w node Undo_log.Acquire ~a:(Int64.of_int holder));
    lock_release =
      (fun env w node ~holder ~outermost:_ ->
        append env w node Undo_log.Release ~a:(Int64.of_int holder));
    fase_exit =
      (fun env w node ~last_line:_ ->
        env.appended "undo" undo_record_bytes;
        Undo_log.append_unfenced w node Undo_log.Fase_end ~a:0L ~b:0L
          ~seq:(next_seq env));
    recovery = Rollback atlas_rollback;
  }

let nvml ~fault =
  {
    (undo ~kind:Lognode.kind_nvml ~fault) with
    fase_exit = (fun _ w node ~last_line:_ -> Undo_log.reset w node);
    recovery =
      Rollback
        (fun ~step w region ->
          (* Undo each open durable region's writes, newest first. *)
          let pm = Pwriter.pmem w in
          fold_nodes pm region Lognode.kind_nvml
            (fun c node ->
              let n, writes = Atlas_recovery.undo_region w node in
              let c = { c with records_scanned = c.records_scanned + n } in
              let c =
                if writes < 0 then c
                else begin
                  step (Printf.sprintf "undo tid=%d writes=%d" (Lognode.tid pm node) writes);
                  { c with
                    writes_undone = c.writes_undone + writes;
                    fases_rolled_back = c.fases_rolled_back + 1 }
                end
              in
              Undo_log.reset w node;
              c)
            zero);
  }

(* Mnemosyne: stores buffered in the redo log, persisted at commit. *)
let mnemosyne ~fault =
  let entries_fence = fault <> Some Drop_commit_fence in
  {
    none with
    create = (fun w region ~tid s -> Redo_log.create w region ~tid ~cap_entries:s.redo_cap);
    rebind = Redo_log.rebind;
    cell = Redo_log.cell;
    redo_store =
      (fun env w node ~addr ~value ->
        (* One redo entry is [addr; value]. *)
        env.appended "redo" 16;
        Redo_log.append w node ~addr ~value);
    txn_begin = Redo_log.begin_txn;
    txn_commit =
      (fun w node ~written ->
        Redo_log.persist_entries w node;
        if entries_fence then Pwriter.fence w;
        Redo_log.persist_status w node Redo_log.Committed;
        Redo_log.apply w node;
        (* Flush the applied data before truncating the redo log — in
           first-store order, so the write-back schedule is a property
           of the program, not of table iteration order. *)
        Pwriter.clwb_lines w (Vec.to_list written);
        Pwriter.fence w;
        Redo_log.persist_status w node Redo_log.Idle);
    recovery =
      Rollback
        (fun ~step w region ->
          let pm = Pwriter.pmem w in
          fold_nodes pm region Lognode.kind_redo
            (fun c node ->
              let c =
                match Redo_log.status pm node with
                | Redo_log.Committed ->
                    (* Commit mark durable: replay (idempotent). *)
                    Redo_log.apply w node;
                    for i = 0 to Redo_log.count pm node - 1 do
                      Pwriter.clwb w (fst (Redo_log.entry pm node i))
                    done;
                    Pwriter.fence w;
                    step
                      (Printf.sprintf "replay tid=%d entries=%d" (Lognode.tid pm node)
                         (Redo_log.count pm node));
                    { c with txns_replayed = c.txns_replayed + 1 }
                | Redo_log.Filling | Redo_log.Idle -> c
              in
              Redo_log.persist_status w node Redo_log.Idle;
              c)
            zero);
  }

(* NVThreads: page copies, committed at every release. *)
let nvthreads =
  {
    none with
    create = (fun w region ~tid s -> Page_log.create w region ~tid ~cap_pages:s.page_cap);
    rebind = Page_log.rebind;
    cell = Page_log.cell;
    page_copies = true;
    fase_enter =
      (fun env w node ~stack_base:_ ~sp:_ ->
        Page_log.begin_fase w node ~seq:(next_seq env));
    page_log =
      (fun env w node ~page ->
        env.appended "page" (8 * Page_log.entry_words);
        Page_log.log_page w node ~page);
    durable_commit =
      (fun env w node ~lines:_ ~reopen ->
        Page_log.commit w node;
        (* Non-final release: re-arm the page set for the rest of the
           FASE. *)
        if reopen then Page_log.begin_fase w node ~seq:(next_seq env));
    recovery =
      Rollback
        (fun ~step w region ->
          let pm = Pwriter.pmem w in
          fold_nodes pm region Lognode.kind_page
            (fun c node ->
              if Page_log.status_committed pm node then begin
                (* Commit mark durable but application may be partial:
                   replay the copies (idempotent). *)
                let n = Page_log.apply w node in
                step (Printf.sprintf "apply tid=%d pages=%d" (Lognode.tid pm node) n);
                { c with pages_restored = c.pages_restored + n }
              end
              else if Page_log.active pm node then begin
                (* Uncommitted: the master pages were never touched. *)
                step (Printf.sprintf "discard tid=%d" (Lognode.tid pm node));
                Page_log.discard w node;
                { c with fases_rolled_back = c.fases_rolled_back + 1 }
              end
              else c)
            zero);
  }

let make ?fault (scheme : Scheme.t) =
  match scheme with
  | Scheme.Ido -> ido ~fault
  | Scheme.Justdo -> justdo ~fault
  | Scheme.Atlas -> atlas ~fault
  | Scheme.Nvml -> nvml ~fault
  | Scheme.Mnemosyne -> mnemosyne ~fault
  | Scheme.Nvthreads -> nvthreads
  | Scheme.Origin -> none
