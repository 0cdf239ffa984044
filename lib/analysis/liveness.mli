(** Backward liveness of virtual registers, at block and instruction
    granularity.  Supplies the live-in sets that the iDO boundary hook
    must preserve and the [Def ∩ LiveOut] output sets of Eq. 1. *)

open Ido_ir

type t

val compute : Cfg.t -> t

val live_in : t -> int -> Regset.t
(** Registers live at entry of a block.
    Exported as the block-level primitive {!live_at} is built on. *)

val live_at : t -> Ir.pos -> Regset.t
(** Registers live just {e before} the instruction (or terminator) at
    the given position. *)
