(** May-dirty forward dataflow over an instrumented function.

    Tracks, per program point, whether any in-FASE program store (the
    summarized {!Plattice} data cell) {e may} be sitting untracked in
    the cache overlay: set by persistent stores (and stack stores under
    the resumption schemes, which keep stacks in NVM), calls, and
    memory-writing intrinsics; cleared where the runtime's tracked-line
    set is provably empty again ([Hfase_enter], [Hdurable_commit]).
    Joins take the disjunction, so "clean" means clean on {e every}
    incoming path — the fact the optimizer's redundant-flush
    elimination (O101) and {!Regioncheck}'s relaxed commit-sequence
    comparison both rely on. *)

open Ido_ir
open Ido_runtime

type t

val write_free : Scheme.t -> Ir.func -> bool
(** No instruction of the function may dirty in-FASE program data under
    [scheme] (a persistent store, a stack store when the stack is in
    pmem, a call or a memory-writing intrinsic): its FASEs leave recovery
    nothing to redo or undo, so their hooks are pure overhead.  The
    optimizer's O102 precondition, and the case {!Regioncheck} accepts
    with every hook elided. *)

val compute : Scheme.t -> Ir.func -> t

val dirty_at : t -> Ir.pos -> bool
(** May program data be dirty just {e before} the instruction at
    [pos]?  [false] means every path to [pos] re-flushed (or never
    dirtied) the tracked lines since the last clearing point. *)
