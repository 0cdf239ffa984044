(** The iDO per-thread log (Fig. 3): [recovery_pc], the coalesced
    register file image [intRF], and the [lock_array] of indirect lock
    holder addresses with its live bitmap.

    The primitives here perform stores and write-backs but never fence
    by themselves; the VM's boundary protocol (Sec. III-A) decides
    where the two persist fences of each boundary go. *)

open Ido_nvm
open Ido_region

val lock_slots : int
(** 16 concurrent locks per thread (ample for the benchmarks). *)

val create : Pwriter.t -> Region.t -> tid:int -> nregs:int -> Pmem.addr

val rebind : Pwriter.t -> Pmem.addr -> tid:int -> unit
(** Recycle a finished thread's arena for a fresh thread: rebind the
    owner tid and re-clear the recovery pc and lock array, one
    write-back + fence.  Caller must guarantee the previous owner is
    Done ({!Ido_vm.Vm.reap} recycles only at quiescent points). *)

val set_recovery_pc : Pwriter.t -> Pmem.addr -> epoch:int -> int -> unit
(** Store + write-back, {e no} fence (step 2 of the boundary).  The
    boundary epoch rides in the word's high bits (one atomic 8-byte
    write). *)

val recovery_pc : Pmem.t -> Pmem.addr -> int
val recovery_epoch : Pmem.t -> Pmem.addr -> int

val epoch_mask : int
(** Epochs are compared modulo this + 1; held locks are always within
    one FASE's boundary count of the pc's epoch, so equality modulo
    the mask is exact.  Exported as the bound of the epochs the tests
    pack. *)

val write_out_regs :
  ?coalesce:bool -> Pwriter.t -> Pmem.addr -> (int * int64) list -> unit
(** Store each register into its fixed [intRF] slot and write back the
    covered cache lines once each (persist coalescing, Sec. IV-B; with
    [~coalesce:false], one write-back per register — the ablation).
    No fence.
    The benchmark's micro-measurements call it. *)

val write_regs :
  Pwriter.t -> Pmem.addr -> coalesce:bool -> Bytes.t -> int list -> unit
(** [write_regs w node ~coalesce regs rs] is [write_out_regs ~coalesce
    w node] of each register [r] of [rs] with its value read from
    [regs], a register file held unboxed (8 bytes per register, native
    byte order), building no list and boxing no value. *)

val cell : Pmem.t -> Pmem.addr -> Pmem.addr -> string
(** The cell of [node] holding word [a]: ["pc"], ["lockrec"] (slots,
    bitmap), ["outlog"] ([intRF]), ["stack"] (simulator-side), ["header"]. *)

val read_reg : Pmem.t -> Pmem.addr -> int -> int64
(** Exported as the primitive {!read_all_regs} is built on. *)

val read_all_regs : Pmem.t -> Pmem.addr -> int64 array

val record_acquire : Pwriter.t -> Pmem.addr -> holder:int -> epoch:int -> unit
(** Fill the first free [lock_array] slot with the epoch-stamped
    indirect holder address and set its live bit; write back.  No fence
    (the caller's single fence covers it, Sec. III-B). *)

val record_release : Pwriter.t -> Pmem.addr -> holder:int -> unit
(** Clear the slot holding [holder] and its live bit; write back. *)

val held_locks : Pmem.t -> Pmem.addr -> (int * int) list
(** Live [(holder, epoch)] pairs.  Recovery re-acquires a lock only
    when its epoch differs from the pc's: an equal stamp means the
    lock was taken after the last persisted boundary, protecting a
    store-free segment that resumption will simply re-execute. *)

val set_sim_stack : Pmem.t -> Pmem.addr -> base:int -> sp:int -> unit
(** Simulator-side stack metadata (real iDO logs the stack pointer in
    intRF); persisted without charging cost. *)

val sim_stack : Pmem.t -> Pmem.addr -> int * int
