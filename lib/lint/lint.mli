(** The linter driver: persist-order abstract interpretation
    ({!Transfer}), instrumentation-contract conformance
    ({!Regioncheck}) and lockset checking ({!Lockset}) over an
    instrumented program, composed into one diagnostic report.

    A clean report means: every path of every function satisfies the
    scheme's hook contract from instrument.mli, every publish point
    obeys the write-ahead discipline the recovery procedure assumes,
    and the worker threads' shared persistent accesses follow a
    consistent locking discipline.  The crash-matrix engine (PR 1)
    validates the same properties dynamically on explored schedules;
    the linter proves the ordering ones on all paths and catches the
    static placement bugs the matrix can only witness. *)

open Ido_ir
open Ido_analysis
open Ido_runtime

val lint_program :
  ?variant:Protocol.fault -> ?entries:string list -> Scheme.t -> Ir.program -> Diag.t list
(** Lint every function and run the lockset pass over [entries] (their
    reachable call graphs).  Defaults to [\["worker"\]] per the
    workload convention; entries missing from the program are dropped,
    and if none remain every function is checked.  Diagnostics are
    sorted and deduplicated.  [variant] checks the program against the
    faulted runtime protocol instead ({!Hook_model.model}). *)

val codes : (string * string) list
(** All stable codes with their explanations, in order. *)
