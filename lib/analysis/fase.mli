(** FASE inference (Sec. IV-A-a).

    A failure-atomic section is a maximal region in which at least one
    lock is held (Sec. II-B), or a programmer-delineated durable
    region.  We infer FASEs from a forward lock-depth dataflow: the
    depth must be consistent at every join (checked), non-negative, and
    zero at every return — i.e. each FASE is confined to a single
    function, exactly the paper's assumption. *)

open Ido_ir

type t

val compute : Cfg.t -> (t, string) result
(** [Error msg] when depths are inconsistent at a join, a depth would
    go negative, durable regions are nested or overlap a lock FASE, or
    a return is reachable with a lock held. *)

val compute_exn : Cfg.t -> t

val depth_before : t -> Ir.pos -> int
(** Lock depth just before the instruction at [pos] executes.
    Exported as the lock-depth half of {!in_fase}, which the FASE
    tests check nesting through. *)

val durable_before : t -> Ir.pos -> bool

val in_fase : t -> Ir.pos -> bool
(** True when the instruction at [pos] executes with a lock held or
    inside a durable region.  The opening [Lock]/[Durable_begin]
    itself is {e not} in the FASE; the closing [Unlock]/[Durable_end]
    is. *)

val covers : t -> Ir.pos -> bool
(** Like {!in_fase} but also true at the opening instruction — the
    span instrumentation must consider. *)

val outermost_acquire : t -> Ir.pos -> bool
(** [pos] holds a [Lock] executed at depth 0 (a FASE begins). *)

val outermost_release : t -> Ir.pos -> bool
(** [pos] holds an [Unlock] executed at depth 1 (the FASE ends). *)

val has_fase : t -> bool
(** Does the function contain any FASE at all? *)
