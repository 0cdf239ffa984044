(** Atlas post-crash recovery.

    Traverses every thread's UNDO log, reconstructs the FASEs and the
    happens-before order among them from the lock acquire/release
    records, computes the set of FASEs that must be discarded — every
    FASE interrupted by the crash, plus, transitively, every FASE that
    acquired a lock {e after} a discarded FASE released it (it may have
    observed uncommitted state) — and rolls their stores back in
    reverse global order (Sec. V-D describes this log traversal; its
    cost is what Table I measures against iDO's constant-time
    restart). *)

open Ido_region

type stats = {
  nodes : int;  (** per-thread logs traversed *)
  records_scanned : int;
  fases_found : int;
  fases_rolled_back : int;
  writes_undone : int;
  cost : Ido_util.Timebase.ns;  (** simulated time spent in recovery *)
}

(** {1 The happens-before closure} *)

type fase = {
  mutable complete : bool;  (** its [Fase_end] record is in the log *)
  mutable writes : (int * int64 * int) list;
      (** [(addr, old, seq)], newest first *)
  mutable acquires : (int64 * int) list;  (** [(lock, seq)], newest first *)
  mutable releases : (int64 * int) list;  (** [(lock, seq)], newest first *)
}

val parse_fases : Undo_log.record list -> fase list
(** Group one thread's chronological records into its FASEs, oldest
    first.  Records outside any FASE are ignored.
    Exported as a step of {!recover}, tested on its own. *)

val rollback_set : fase array -> bool array
(** [rollback_set fases] marks the FASEs recovery discards: the least
    set containing every incomplete FASE and, whenever it contains a
    FASE that released lock [l] at sequence number [s'], every FASE
    that acquired [l] at some [s >= s'].  Acquires are indexed by lock
    and sorted, and a worklist expands each marked FASE once, visiting
    each acquire record at most once: O(r log r) in the lock records.
    Exported as a step of {!recover}, tested on its own. *)

val recover : Pwriter.t -> Region.t -> stats
(** Scan, roll back, persist the restored values, truncate the logs.
    After [recover] the persistent heap reflects only FASEs that
    survive the happens-before analysis. *)
