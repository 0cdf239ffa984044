(** Persistent bounded message log — a ring buffer of checksummed
    records under one lock, the "persistent log" usage pattern that
    dominates the WHISPER suite the paper draws its applications from.

    Appends write a whole multi-word record (sequence number, payload,
    checksum) plus the head cursor in one FASE — a dense multi-store
    region; consumes verify the checksum and advance the tail.  The
    post-crash invariants: [tail ≤ head], [head − tail ≤ capacity], and
    every record between the cursors checksums correctly. *)

open Ido_ir

val program : ?capacity:int -> unit -> Ir.program
(** [init] formats an empty ring of [capacity] slots (default 64);
    [worker(nops)] runs 50% append / 50% consume; [check] validates
    cursors and checksums, observing the number of live records.
    Also exports [mlog_append(desc, v)] and [mlog_consume(desc)]. *)
