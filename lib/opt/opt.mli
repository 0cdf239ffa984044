(** The persistence-redundancy optimizer driver.

    [optimize scheme p] runs the four justification-carrying rewrites
    over every function of an {e instrumented} program and returns the
    optimized program with the applied {!Rewrite} records, sorted.
    The pass is deterministic: the same input yields byte-identical
    rewrite reports.

    Every rewrite is {e obligated}: the optimized program must re-lint
    clean ({!lint_obligation}), pass the full crash matrix with
    identical oracles, and reconcile its obs rollups within the
    rewrites' declared {!Rewrite.delta_class} — [Ido_check.Optrun]
    enforces the dynamic obligations; a divergence raises
    {!Opt_violation} naming the rewrite. *)

open Ido_ir
open Ido_runtime

exception Opt_violation of string

val optimize : Scheme.t -> Ir.program -> Ir.program * Rewrite.t list

val lint_obligation : Scheme.t -> Ir.program -> Rewrite.t list -> unit
(** Raises {!Opt_violation} when the optimized program lints dirty. *)

val violation : ('a, unit, string, 'b) format4 -> 'a
