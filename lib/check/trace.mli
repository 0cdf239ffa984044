(** NDJSON trace files for {!Engine.run_traced} runs.

    Layout of a trace file (one JSON object per line):

    + a header carrying the complete {!Engine.spec} and the crash
      index ([-1] encodes a crash-free run) — everything needed to
      re-execute the run from the file alone;
    + one {!Ido_obs.Obs.event_to_ndjson} line per observed event;
    + a footer pinning the event count, the durable-image digest
      ({!Ido_workloads.Oracle.digest}), the oracle verdict and the
      obs/counters reconciliation result.

    Because the simulator is deterministic, {!replay} of a loaded
    trace followed by {!save} reproduces the original file byte for
    byte — which is exactly what the CI smoke job asserts with [cmp],
    and what makes a failing [ido_check explore] injection portable:
    ship the trace, not the repro incantation. *)

type summary = {
  spec : Engine.spec;
  index : int option;  (** [None]: recorded crash-free *)
  events : int;  (** event-line count claimed by the footer *)
  digest : string;
  verdict : (unit, string) result option;
      (** oracle verdict of the recorded run; [None] when crash-free *)
  consistency : (unit, string) result;
      (** obs/counters reconciliation of the recorded run *)
}

val save : Engine.traced -> string -> unit
(** Write the complete trace (header, events, footer) to a file. *)

exception Malformed of string
(** A file that is not a trace: the message names the file and the
    first problem found. *)

val load : string -> summary
(** Parse a trace's header and footer (the event lines are not
    deserialised — replay re-generates them).
    @raise Malformed on a file that is not a well-formed trace.
    @raise Sys_error on an unreadable file. *)

val replay : summary -> Engine.traced
(** Re-execute the run described by the header.  The result's digest
    must equal {!summary.digest}; a disagreement means determinism was
    broken between recording and replay. *)
