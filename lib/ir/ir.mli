(** The intermediate representation.

    The paper's compiler operates on LLVM IR; this module is our
    stand-in: a small register-machine IR with explicit control flow,
    virtual registers holding 64-bit integers, separate persistent /
    transient / stack address spaces, lock operations (from which FASEs
    are inferred), programmer-delineated durable regions, and
    instrumentation {e hooks} that the scheme-specific passes insert
    and the VM interprets.

    Programs written by hand (or by the workload builders) contain no
    hooks; instrumented programs are ordinary programs plus hooks, so
    they can be printed, validated and diffed like any other IR. *)

type reg = int
(** Virtual register; an infinite register file of [int64] values. *)

type space =
  | Persistent  (** words in the NVM region (heap + roots) *)
  | Transient  (** volatile DRAM words, lost at a crash *)
  | Stack
      (** per-thread stack slots; placed in NVM under iDO and JUSTDO
          (Sec. V), in DRAM otherwise *)

type operand = Reg of reg | Imm of int64

type binop =
  | Add | Sub | Mul | Div | Rem
  | And | Or | Xor | Shl | Shr
  | Eq | Ne | Lt | Le | Gt | Ge

(** Runtime intrinsics.  [Rand] and [Observe] are non-idempotent and
    therefore (checked by {!Validate}) forbidden inside FASEs. *)
type intrinsic =
  | Rand  (** [dst <- rand bound]: uniform in [\[0, bound)] *)
  | Thread_id  (** [dst <- simulated thread id] *)
  | Nv_alloc  (** [dst <- nv_malloc nwords] *)
  | Nv_free  (** [nv_free addr] *)
  | Work  (** spin for [arg] nanoseconds; idempotent *)
  | Observe  (** append [arg] to the thread's observation list *)
  | Root_get  (** [dst <- region root slot\[arg\]] *)
  | Root_set  (** [root slot\[arg0\] <- arg1] (persisted) *)
  | Assert_nz  (** trap when [arg] is zero *)

(** Instrumentation hooks, inserted by {!Ido_instrument} passes and
    executed by the VM's scheme runtime.  User programs never contain
    hooks. *)
type hook =
  | Hregion of region_hook
      (** iDO idempotent-region boundary (Sec. III-A): persist the
          previous region's outputs and the registers live into the
          next region, fence, advance [recovery_pc], fence. *)
  | Hfase_enter  (** outermost acquire: arm per-thread FASE state *)
  | Hfase_exit
      (** outermost release done: clear [recovery_pc], persist. *)
  | Hlock_acquired
      (** just after [Lock]: record the indirect lock holder in the
          thread's [lock_array] (iDO), or the ownership log (Atlas /
          JUSTDO). *)
  | Hlock_release of { outermost : bool }
      (** just before [Unlock]: clear the record (persisted before the
          unlock executes).  Under iDO, the clearing fence also carries
          the preceding boundary's recovery-pc update, and an
          [outermost] release clears the recovery pc itself — the
          "single memory fence" lock operations of Sec. III-B. *)
  | Hjustdo_store  (** before a persistent store: JUSTDO log + fence *)
  | Hundo_store  (** before a persistent store: UNDO entry + fence *)
  | Hredo_store  (** after a persistent store: append REDO entry *)
  | Htxn_begin  (** Mnemosyne transaction begin *)
  | Htxn_commit  (** Mnemosyne commit: validate, persist, apply *)
  | Hpage_log  (** NVThreads: page copy on first touch in the FASE *)
  | Hdurable_commit
      (** end of a programmer-delineated durable region for UNDO-style
          schemes: flush data, truncate log. *)

and region_hook = {
  region_id : int;  (** static id of the region this hook opens *)
  live_in : reg list;  (** registers live into the opened region *)
  out_regs : reg list;
      (** OutputSet of the {e closed} region: Def ∩ LiveOut (Eq. 1) *)
  skippable : bool;
      (** a lock-induced boundary: when the closed region performed no
          persistent store, the persist may be elided — resumption
          simply restarts from the previous boundary and re-executes
          the clean segment (reads, lock operations) idempotently *)
  at_release : bool;
      (** immediately precedes a lock release: the pc update defers to
          the release record's fence *)
}

type instr =
  | Bin of reg * binop * operand * operand
  | Mov of reg * operand
  | Load of { dst : reg; space : space; base : operand; off : int }
  | Store of { space : space; base : operand; off : int; src : operand }
  | Alloca of reg * int
      (** [dst <- address of n fresh stack words] in the current frame *)
  | Lock of operand  (** acquire the mutex whose id is the operand *)
  | Unlock of operand
  | Durable_begin  (** open a programmer-delineated FASE (Sec. II-B) *)
  | Durable_end
  | Call of { dst : reg option; func : string; args : operand list }
  | Intrinsic of { dst : reg option; intr : intrinsic; args : operand list }
  | Hook of hook

type terminator =
  | Br of int  (** unconditional branch to block index *)
  | Cbr of operand * int * int  (** if nonzero then first else second *)
  | Ret of operand option

type block = {
  label : string;
  mutable instrs : instr array;
  mutable term : terminator;
}

type func = {
  name : string;
  params : reg list;
  mutable blocks : block array;  (** entry is block 0 *)
  nregs : int;  (** registers are numbered [\[0, nregs)] *)
}

type program = { funcs : (string * func) list }

val find_func : program -> string -> func
(** @raise Not_found when absent. *)

(** {1 Positions}

    A position designates an instruction slot within a function:
    [(block, index)] with [index = Array.length instrs] denoting the
    terminator.  Recovery PCs are positions in the instrumented
    program, encoded as dense integers by {!Ido_vm.Image}. *)

type pos = { blk : int; idx : int }

val compare_pos : pos -> pos -> int

(** {1 Use/def} *)

val instr_uses : instr -> reg list
(** Registers read by an instruction (without duplicates). *)

val instr_defs : instr -> reg list
(** Registers written by an instruction. *)

val defines : instr -> reg -> bool
(** [List.mem r (instr_defs instr)], without building the list. *)

val term_uses : terminator -> reg list

val successors : terminator -> int list

(** {1 Queries} *)

val is_hook : instr -> bool

val fold_instrs : ('a -> pos -> instr -> 'a) -> 'a -> func -> 'a
(** Left fold over every instruction of every block, in layout order. *)

(** {1 Printing} *)

val hook_name : hook -> string
(** ["region#3"], ["fase_enter"], ["lock_release"], ...: the name
    diagnostics give a hook. *)

val pp_instr : Format.formatter -> instr -> unit
val pp_terminator : Format.formatter -> terminator -> unit
val pp_func : Format.formatter -> func -> unit
val pp_program : Format.formatter -> program -> unit
