(** Reaching definitions for virtual registers.

    For each program position, the set of definition sites whose value
    a register may still hold.  Function parameters are modelled as
    definitions at a virtual position in block -1 so that every use
    is reached by at least one definition in a validated program.

    {!Alias} consumes this analysis to resolve address expressions
    per-use: a register with a {e unique} reaching definition at a use
    site resolves precisely even when it is re-assigned elsewhere in
    the function (builder code uses [assign] freely). *)

open Ido_ir

type t

val compute : Cfg.t -> t

val defs_at : t -> Ir.pos -> Ir.reg -> Ir.pos list
(** Definition sites of [reg] reaching the point just before the
    instruction at [pos]; sorted, without duplicates.
    Exported as the reference {!unique_def} is checked against. *)

val unique_def : t -> Ir.pos -> Ir.reg -> Ir.pos option
(** [Some d] when exactly one definition reaches. *)
