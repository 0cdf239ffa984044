(** BasicAA-style alias analysis (Sec. IV-A-b).

    Address expressions are resolved to [base + constant offset] where
    the base is rooted at an allocation site ([alloca], [nv_alloc]), a
    constant, or a parameter.  Resolution is {e per use}, through
    {!Reaching}: a register re-assigned elsewhere still resolves
    precisely at a use reached by a unique definition.  Pointers loaded
    from memory and joins with several reaching definitions are
    unknown.  Like LLVM's basicAA, the result is deliberately
    conservative: unknown vs anything is a may-alias. *)

open Ido_ir

type t

val compute : Ir.func -> t

val may_alias : t -> Ir.pos -> Ir.pos -> bool
(** [may_alias t p q] — may the memory word accessed by the load/store
    at [p] be the word accessed by the one at [q]?  Positions must
    hold [Load]/[Store] instructions (or memory intrinsics, which are
    treated as unknown accesses of their space). *)
