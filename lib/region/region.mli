(** Persistent region manager.

    iDO borrows Atlas's region manager (Sec. IV-C): a persistent region
    is mapped into the address space and supports [nv_malloc]-style
    allocation plus a small directory of named roots through which
    programs rediscover their data after a restart.  This module
    implements that manager over {!Ido_nvm.Pmem}: a fixed header holds
    a magic word, a running/clean flag (crash detection), the heap
    metadata, the head of the persistent iDO-log list, and a table of
    root slots.

    Allocator metadata (bump pointer, free list, block headers) lives
    {e in} persistent memory and is explicitly written back, so it
    survives crashes.  A crash between the allocation of a block and
    the linking of that block into a data structure can leak the block
    — the same benign leak Atlas/Makalu accept — but can never corrupt
    the heap. *)

open Ido_nvm

type t

val heap_base : Pmem.addr
(** First heap word; addresses below it are the region header.
    Exported as the bound the allocator tests check blocks against. *)

val create : Pmem.t -> t
(** Format a fresh region (writes and persists the header). *)

val open_existing : Pmem.t -> t
(** Attach to an already-formatted region, e.g. after a crash.
    Exported with {!was_dirty} as the region's restart path.
    @raise Invalid_argument if the magic word is absent. *)

val was_dirty : t -> bool
(** True when the region was not cleanly closed — i.e. the previous
    execution crashed and recovery is required. *)

val mark_running : t -> unit
(** Set the dirty flag (persisted); call before mutating the heap. *)

val mark_clean : t -> unit
(** Clear the dirty flag (persisted); call at clean shutdown and at
    the end of successful recovery. *)

val alloc : t -> int -> Pmem.addr
(** [alloc t n] returns the base of [n] (> 0) fresh words.  First-fit
    over the persistent free list, falling back to bump allocation.
    @raise Failure when the region is exhausted. *)

val free : t -> Pmem.addr -> unit
(** Return a block obtained from [alloc] to the free list. *)

val block_size : t -> Pmem.addr -> int
(** Payload size of an allocated block.
    Exported as the header read {!free}'s coalescing is built on. *)

val get_root : t -> int -> int64
val set_root : t -> int -> int64 -> unit
(** Persistent named roots, index in [\[0, root_slots)].  [set_root]
    writes back and fences. *)

val log_head : t -> int64
val set_log_head : t -> int64 -> unit
(** Head of the persistent per-thread log list (Fig. 3). *)

val words_allocated : t -> int
(** Total heap words handed out since formatting (diagnostic).
    Exported as the reader of the counter {!alloc} persists. *)
