(** Mnemosyne-style REDO transaction log.

    During a transaction, writes are buffered: each one appends an
    [(addr, value)] entry (no fence — REDO's key advantage is that
    persistence is deferred to commit).  Commit persists the entries,
    persists a commit mark, applies the writes in place, then
    truncates.  A crash before the commit mark discards the
    transaction; after the mark, recovery replays it (replay is
    idempotent). *)

open Ido_nvm
open Ido_region

type status = Idle | Filling | Committed

val create : Pwriter.t -> Region.t -> tid:int -> cap_entries:int -> Pmem.addr

val rebind : Pwriter.t -> Pmem.addr -> tid:int -> unit
(** Recycle a finished thread's arena: rebind the owner tid, status
    back to Idle, write set emptied, one write-back + fence.  Previous
    owner must be Done. *)

val begin_txn : Pwriter.t -> Pmem.addr -> unit
val append : Pwriter.t -> Pmem.addr -> addr:Pmem.addr -> value:int64 -> unit
val count : Pmem.t -> Pmem.addr -> int
val entry : Pmem.t -> Pmem.addr -> int -> Pmem.addr * int64

val persist_entries : Pwriter.t -> Pmem.addr -> unit
(** Write back every entry line (no fence). *)

val persist_status : Pwriter.t -> Pmem.addr -> status -> unit
(** Store + write-back + fence. *)

val status : Pmem.t -> Pmem.addr -> status

val cell : Pmem.t -> Pmem.addr -> Pmem.addr -> string
(** The cell of [node] holding word [a]: ["status"], ["commits"] (the
    counter {!persist_status} bumps), ["redo"] (count, entries), ["header"]. *)

val apply : Pwriter.t -> Pmem.addr -> unit
(** Replay the buffered writes in place (in log order). *)
