(** UNDO logging with happens-before records — the Atlas runtime
    (Chakrabarti et al., OOPSLA'14), also reused (without the lock
    records) for NVML-style programmer-delineated regions.

    Per thread, a persistent ring buffer of 4-word records
    [tag; a; b; seq].  Before every persistent store inside a FASE the
    old value is logged and persisted (one fence).  Lock acquires and
    releases are logged and persisted too (one fence each) — that is
    how Atlas tracks cross-FASE dependences.

    {!Atlas_recovery} consumes these logs after a crash. *)

open Ido_nvm
open Ido_region

type tag = Fase_begin | Write | Acquire | Release | Fase_end

val record_words : int
(** Words per log record ([kind; a; b; seq] = 4). *)

type record = { tag : tag; a : int64; b : int64; seq : int }

val create : Pwriter.t -> Region.t -> kind:int -> tid:int -> cap_records:int -> Pmem.addr
(** [kind] is {!Lognode.kind_atlas} or {!Lognode.kind_nvml}. *)

val rebind : Pwriter.t -> Pmem.addr -> tid:int -> unit
(** Recycle a finished thread's arena: rebind the owner tid and
    truncate the record buffer, one write-back + fence.  Only legal at
    a quiescent point (no open FASE on any thread) — see the
    happens-before argument in the implementation. *)

val append :
  ?write_ahead:bool -> Pwriter.t -> Pmem.addr -> tag -> a:int64 -> b:int64 -> seq:int -> unit
(** Append and persist one record (stores, write-backs, one fence).
    The record's words are written back before head and total publish
    it; [~write_ahead:false] issues that write-back after them instead,
    the unfenced-undo-append fault's step. *)

val append_unfenced :
  ?write_ahead:bool -> Pwriter.t -> Pmem.addr -> tag -> a:int64 -> b:int64 -> seq:int -> unit
(** {!append} without the fence: the record becomes durable with the
    next fence (used for FASE begin/end markers). *)

val log_write :
  ?write_ahead:bool -> Pwriter.t -> Pmem.addr -> addr:Pmem.addr -> old:int64 -> seq:int -> unit
(** The per-store UNDO entry: 32 bytes, flushed, fenced — the cost
    Atlas pays at {e every} store that iDO amortises per region. *)

val total : Pmem.t -> Pmem.addr -> int
(** Records ever appended (drives the recovery-time model). *)

(** {1 Reading the ring}

    A {!reader} streams the ring's records oldest first and allocates
    nothing per record: opening it loads the [cap], [head] and [total]
    words, and each {!next} loads one record's four words.  Recovery
    reads the logs through it ({!Atlas_recovery}). *)

type reader

val reader : Pmem.t -> Pmem.addr -> reader
(** Open a read of the log at the given node. *)

val remaining : reader -> int
(** Records not yet read: at opening, the records still in the ring. *)

val next : reader -> tag
(** Load the next record and return its tag; its [a] and [b] words are
    then bytes [[0, 8)] and [[8, 16)] of {!ab} (native byte order,
    exactly as stored) and its sequence number is {!seq}.
    @raise Invalid_argument when no record is left. *)

val ab : reader -> Bytes.t
(** The last record's [a] and [b] words; overwritten by {!next}. *)

val seq : reader -> int
(** The last record's sequence number. *)

val records : Pmem.t -> Pmem.addr -> record list
(** Chronological (oldest first) records still in the ring, read
    through a {!reader}.  Exported as the list reader of the tests'
    reference recovery, which the flat one is checked against. *)

val in_fase : Pmem.t -> Pmem.addr -> bool
(** Does the log end inside an open FASE / durable region?  Reads every
    record through a {!reader}. *)

val cell : Pmem.t -> Pmem.addr -> Pmem.addr -> string
(** The cell of [node] holding word [a]: ["head"] (head and total),
    ["rec"] (the records) or ["header"]. *)

val reset : Pwriter.t -> Pmem.addr -> unit
(** Truncate after recovery or at a clean commit (NVML). *)
