(** NVThreads-style page-granularity REDO logging.

    NVThreads gives each critical section copy-on-write copies of the
    pages it dirties (via OS page protection) and commits the copies
    at lock release.  Here the per-thread log holds those copies: the
    first write to a page inside a FASE copies the whole page into the
    log (the page-fault + copy expense); subsequent reads and writes
    inside the FASE are served from the copy; the master page is
    untouched until commit.

    Commit: persist the copies (one fence), persist the commit mark,
    apply the copies to the master pages, persist those, truncate.  A
    crash before the mark discards the FASE with the master pristine;
    after the mark, recovery replays the copies (idempotent).

    Pages are 64 words (512 B) so that page granularity stays visibly
    heavier than word-granular schemes without dwarfing the
    simulation. *)

open Ido_nvm
open Ido_region

val page_words : int

val entry_words : int
(** Words per page-set entry: page index + dirty bitmask + the copy. *)

val page_of : Pmem.addr -> int
(** Page index containing the word address. *)

val create : Pwriter.t -> Region.t -> tid:int -> cap_pages:int -> Pmem.addr

val rebind : Pwriter.t -> Pmem.addr -> tid:int -> unit
(** Recycle a finished thread's arena: rebind the owner tid, status
    back to idle, page set emptied, one write-back + fence.  Previous
    owner must be Done. *)

val begin_fase : Pwriter.t -> Pmem.addr -> seq:int -> unit

val log_page : Pwriter.t -> Pmem.addr -> page:int -> int
(** Copy the page's current master contents into the log (first-touch
    cost: 64 loads + 64 stores, no fence needed — the master stays
    authoritative until commit).  Returns the entry index. *)

val copy_word_addr : Pmem.addr -> int -> off:int -> Pmem.addr
(** Address of word [off] of entry [i]'s copy — the FASE's read/write
    target for that page. *)

val mark_dirty : Pwriter.t -> Pmem.addr -> int -> off:int -> unit
(** Record that word [off] of entry [i] was written.  Commit applies
    only dirty words (NVThreads publishes diffs, so writers of
    distinct words on a shared page do not clobber each other). *)

val commit : Pwriter.t -> Pmem.addr -> unit
(** The full commit protocol described above. *)

val cell : Pmem.t -> Pmem.addr -> Pmem.addr -> string
(** The cell of [node] holding word [a]: ["pstatus"], ["pages"]
    (count, FASE stamp, copies) or ["header"]. *)

val status_committed : Pmem.t -> Pmem.addr -> bool
val active : Pmem.t -> Pmem.addr -> bool
(** A FASE was open (copies present, commit mark absent). *)

val apply : Pwriter.t -> Pmem.addr -> int
(** Replay the copies onto the master pages, persist, truncate;
    returns the number of pages applied (recovery of a committed but
    incompletely applied FASE). *)

val discard : Pwriter.t -> Pmem.addr -> unit
(** Drop an uncommitted FASE's copies (master was never touched). *)
