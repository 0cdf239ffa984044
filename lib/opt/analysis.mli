(** Shared structural analyses and block surgery for the optimizer
    passes: natural loops with preheaders, and position-directed
    instruction deletion/insertion. *)

open Ido_ir

type loop = { header : int; body : int list; preheader : int option }
(** A natural loop (back edges merged per header).  [preheader] is the
    unique out-of-loop predecessor of [header] when it falls through
    with an unconditional [Br header]; hoists land at its end. *)

val loops : Ir.func -> loop list

val delete : Ir.func -> Ir.pos list -> Ir.func
(** Remove the instructions at the given original positions. *)

val append_at_end : Ir.func -> int -> Ir.instr list -> Ir.func
(** Append instructions at the end of block [b] (before its
    terminator). *)
