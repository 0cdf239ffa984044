(** JUSTDO logging (Izraelevitz et al., ASPLOS'16), re-implemented per
    the paper's description: immediately before each store inside a
    FASE, the thread persists [(pc, address, value)]; recovery performs
    the logged store and resumes at the following instruction, running
    each interrupted FASE to completion.

    Lock operations maintain a lock {e intention} log and a lock
    {e ownership} log, each requiring its own persist fence — the two
    fences per lock operation that iDO's indirect locking eliminates
    (Sec. III-B).

    As in the paper's own evaluation, the program stack lives in NVM,
    and FASE code may not cache values in registers; the VM charges
    the memory-operand penalty.  The register snapshot stored here is
    simulator-side restore data (memory-resident in real JUSTDO) and
    is written without cost. *)

open Ido_nvm
open Ido_region

val create : Pwriter.t -> Region.t -> tid:int -> nregs:int -> Pmem.addr

val rebind : Pwriter.t -> Pmem.addr -> tid:int -> unit
(** Recycle a finished thread's arena: rebind the owner tid, disarm
    the resumption tuple, clear lock array and intent word, one
    write-back + fence.  Previous owner must be Done. *)

val log_store :
  ?arm:bool -> Pwriter.t -> Pmem.addr -> pc:int -> addr:Pmem.addr -> value:int64 -> unit
(** Persist the JUSTDO entry: stores + write-back + {e one} fence.
    The stores write the valid flag before the entry words are written
    back, which is safe only because the entry is first armed: poked
    durable as a whole, simulator-side.  [~arm:false] skips that, the
    early-publish fault's step. *)

val clear : Pwriter.t -> Pmem.addr -> unit
(** FASE complete: invalidate the entry (persisted). *)

val armed : Pmem.t -> Pmem.addr -> bool
val entry : Pmem.t -> Pmem.addr -> int * Pmem.addr * int64
(** [(pc, addr, value)] of the armed entry. *)

val record_acquire : Pwriter.t -> Pmem.addr -> holder:int -> unit
(** Intention log + ownership log: two persist fences. *)

val record_release : Pwriter.t -> Pmem.addr -> holder:int -> unit

val held_locks : Pmem.t -> Pmem.addr -> int list

val snapshot_regs : Pmem.t -> Pmem.addr -> Bytes.t -> unit
(** Simulator-side: record a register file held unboxed, 8 bytes per
    register in native byte order as the VM keeps it (no cost
    charged). *)

val read_all_regs : Pmem.t -> Pmem.addr -> int64 array

val set_sim_stack : Pmem.t -> Pmem.addr -> base:int -> sp:int -> unit
(** Simulator-side stack metadata, persisted without cost (the real
    system keeps this state memory-resident). *)

val sim_stack : Pmem.t -> Pmem.addr -> int * int

val cell : Pmem.t -> Pmem.addr -> Pmem.addr -> string
(** The cell of [node] holding word [a]: ["valid"], ["entry"],
    ["intent"], ["lockrec"], ["regs"] (simulator-side) or ["header"]. *)
