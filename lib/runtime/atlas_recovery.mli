(** Undo-log recovery: the steps of Atlas's and NVML's rollback halves
    in {!Protocol}.

    Atlas traverses every thread's UNDO log, reconstructs the FASEs and
    the happens-before order among them from the lock acquire/release
    records, computes the set of FASEs that must be discarded — every
    FASE interrupted by the crash, plus, transitively, every FASE that
    acquired a lock {e after} a discarded FASE released it (it may have
    observed uncommitted state) — and rolls their stores back in
    reverse global order (Sec. V-D describes this log traversal; its
    cost is what Table I measures against iDO's constant-time
    restart). *)

(** {1 The happens-before closure} *)

type log
(** The FASEs of a set of undo logs and their write, acquire and
    release records, in flat arrays: about four words per record, with
    the logged [a] and [b] words kept exact in bytes. *)

val scan : Ido_nvm.Pmem.t -> Ido_nvm.Pmem.addr list -> log
(** Read every record of the given logs once, through
    {!Undo_log.reader}.  FASE [f] is the [f]-th [Fase_begin] read, logs
    in the given order, each oldest record first; records outside any
    FASE are ignored. *)

val records : log -> int
(** The records {!scan} read. *)

val rollback_set : log -> bool array
(** [rollback_set l] marks the FASEs recovery discards: the least set
    containing every incomplete FASE and, whenever it contains a FASE
    that released lock [l] at sequence number [s'], every FASE that
    acquired [l] at some [s >= s'].  The acquires are sorted by lock and
    seq, and a worklist expands each marked FASE once, visiting each
    acquire at most once: O(r log r) in the records. *)

val undo : Pwriter.t -> log -> bool array -> int
(** [undo w l rolled] restores the old value of every write of the
    FASEs [rolled] marks, newest sequence number first, writes each back
    and fences once if it undid any; the writes undone.  Afterwards the
    persistent heap reflects only the unmarked FASEs. *)

(** {1 NVML durable regions}

    NVML reuses the undo log without lock records: each thread's log
    holds at most its open durable region. *)

val undo_region : Pwriter.t -> Ido_nvm.Pmem.addr -> int * int
(** [undo_region w node] reads the log's records, then asks
    {!Undo_log.in_fase} (a second read).  When the log ends inside a
    durable region, it restores the old value of every logged write,
    newest first, writes each back and fences; it returns the records
    read and the writes undone, or [-1] undone when no region was
    open.  The log is left for the caller to {!Undo_log.reset}. *)
