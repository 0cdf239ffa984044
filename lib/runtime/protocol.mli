(** Each scheme's persist protocol, written once: what its runtime
    does to persistent memory at each hook (log stores, write-backs,
    fences, and the {e publish} stores that make logged state reachable
    to recovery), and how its recovery reads those logs back.  The VM
    ([Ido_vm.Interp]) runs the hook functions and keeps clocks, obs
    events, statistics, the commit token and the run queue to itself;
    the linter ([Ido_lint.Hook_model]) records them on a scratch
    memory, so it checks the protocol the machine runs.  The VM's
    recovery driver ([Ido_vm.Recover]) runs the {!recovery} half.

    Every hook function takes the machine-wide {!env}, the thread's
    {!Pwriter} and log node, and the few values its step needs.  Hooks
    a scheme never places are no-ops in its record. *)

open Ido_util
open Ido_nvm

(** Seeded faults: each is the real protocol of one hook with one step
    changed, re-seeding the bugs the crash matrix caught dynamically.
    The VM never runs one; the linter checks intact programs against
    them. *)
type fault =
  | Early_publish_justdo
      (** JUSTDO store: the entry is not armed durable first, so the
          valid flag is stored before the entry words are written back *)
  | Unfenced_undo_append
      (** undo store: head/total stored before the record's write-backs
          are issued *)
  | Reorder_region_writeback
      (** iDO boundary: the data write-backs issued after its fence *)
  | Drop_release_fence  (** iDO lock release: no closing fence *)
  | Drop_commit_fence
      (** Mnemosyne commit: no fence between the redo entries'
          write-back and the Committed status *)

val faults : fault list
(** In the order the mutation corpus and the fuzzer enumerate them. *)

val fault_name : fault -> string
(** The stable name of corpus lines and mutants ("early-publish-justdo"). *)

val fault_of_name : string -> fault option

type env = {
  mutable seq : int;
      (** the last happens-before sequence number handed out (Atlas
          records, NVThreads FASE stamps) *)
  appended : string -> int -> unit;
      (** told of each log record appended (the log's name, "undo",
          "intrf", ..., and its payload bytes) just before its stores *)
  coalesce : bool;  (** one [intRF] write-back per line (off: ablation) *)
  single_fence : bool;  (** iDO's single-fence lock records (off: ablation) *)
}

(** What {!t.create} sizes a log node by. *)
type sizes = { nregs : int; undo_cap : int; redo_cap : int; page_cap : int }

(** {1 Recovery}

    Recovery (Sec. III-C) resumes each interrupted FASE from its
    persisted point, or rolls the logs back. *)

(** What an interrupted FASE left in a resumption scheme's log node. *)
type resume = {
  pc : int;  (** where the FASE resumes *)
  regs : int64 array;  (** the register words it resumes with *)
  stack : int * int;  (** its stack's base and pointer *)
  held : int list;  (** the locks it holds when it resumes *)
  epoch : int option;  (** iDO: the recovery pc's epoch *)
}

(** What a rollback did. *)
type counts = {
  records_scanned : int;  (** undo records read (Atlas, NVML) *)
  writes_undone : int;
  fases_rolled_back : int;
  pages_restored : int;  (** page copies applied (NVThreads) *)
  txns_replayed : int;  (** committed transactions replayed (Mnemosyne) *)
}

val zero : counts

type recovery =
  | No_recovery  (** nothing was logged (Origin) *)
  | Resume of (Pmem.t -> Pmem.addr -> resume option)
      (** read one log node of the region: the interrupted FASE it
          holds, if any; [None] for a node of another kind *)
  | Rollback of (step:(string -> unit) -> Pwriter.t -> Ido_region.Region.t -> counts)
      (** scan the region's logs, undo or replay them, truncate them;
          [step] is told of each recovery step, and the simulated
          time spent is left in the writer *)

val atlas_per_record_ns : Timebase.ns
(** Atlas's recovery cost per scanned UNDO record (happens-before graph
    and sort), charged by its rollback; Table I extrapolates longer kill
    times with it. *)

type t = {
  create : Pwriter.t -> Ido_region.Region.t -> tid:int -> sizes -> Pmem.addr;
      (** allocate and persist a thread's log node; 0 when there is none *)
  rebind : Pwriter.t -> Pmem.addr -> tid:int -> unit;
      (** hand a finished thread's clean node to a new thread *)
  cell : Pmem.t -> Pmem.addr -> Pmem.addr -> string;
      (** [cell pm node a] names the log cell of word [a] ("pc", "head",
          ...), from the log module's layout *)
  page_copies : bool;  (** FASE accesses go to page copies (NVThreads) *)
  per_store : bool;
      (** JUSTDO: FASE code caches nothing in registers, and each
          store's line is written back before the next log entry *)
  exit_hold : int;
      (** ns the FASE exit holds the runtime's global token (Atlas) *)
  fase_enter : env -> Pwriter.t -> Pmem.addr -> stack_base:int -> sp:int -> unit;
  fase_exit : env -> Pwriter.t -> Pmem.addr -> last_line:int -> unit;
      (** [last_line]: the FASE's last store's line still awaiting its
          write-back under [per_store], or -1 *)
  lock_acquired : env -> Pwriter.t -> Pmem.addr -> holder:int -> epoch:int -> unit;
  lock_release : env -> Pwriter.t -> Pmem.addr -> holder:int -> outermost:bool -> unit;
  boundary :
    env -> Pwriter.t -> Pmem.addr -> regs:Bytes.t -> out:int list -> lines:Lineset.t ->
    epoch:int -> pc:int -> at_release:bool -> outermost:bool -> unit;
      (** iDO: persist registers [out] of [regs] and the data [lines]
          (then emptied), fence, move the recovery pc to [pc].  At a
          release the release record's fence carries the pc, and before
          an [outermost] one no pc is stored: its pc := 0 supersedes it. *)
  justdo_store :
    env -> Pwriter.t -> Pmem.addr -> last_line:int -> regs:Bytes.t -> stack_base:int ->
    sp:int -> pc:int -> addr:Pmem.addr -> value:int64 -> unit;
  undo_store : env -> Pwriter.t -> Pmem.addr -> addr:Pmem.addr -> unit;
      (** log [addr]'s value before it is overwritten *)
  page_log : env -> Pwriter.t -> Pmem.addr -> page:int -> int;
      (** copy [page] into the log; the copy's entry index *)
  redo_store : env -> Pwriter.t -> Pmem.addr -> addr:Pmem.addr -> value:int64 -> unit;
      (** buffer a transactional store; run at the guarded store, not at
          [Hredo_store] *)
  txn_begin : Pwriter.t -> Pmem.addr -> unit;
  txn_commit : Pwriter.t -> Pmem.addr -> written:int Vec.t -> unit;
      (** [written]: distinct addresses in first-store order *)
  durable_commit : env -> Pwriter.t -> Pmem.addr -> lines:Lineset.t -> reopen:bool -> unit;
      (** make the FASE's data ([lines], then emptied, or the page
          copies) durable; [reopen] when the FASE goes on *)
  recovery : recovery;
}

val make : ?fault:fault -> Scheme.t -> t
(** The scheme's protocol, with [fault]'s step changed if it is one of
    this scheme's. *)
