(** Imperative construction of {!Ir.func} values.

    The builder hands out fresh virtual registers and block handles,
    tracks an insertion point, and offers structured [if_]/[while_]
    combinators so that workload programs read like source code.  Every
    block must be terminated exactly once; [finish] checks this. *)

open Ir

type t

val create : name:string -> nparams:int -> t * reg list
(** Start a function.  Returns the builder and the parameter
    registers.  The entry block exists and is the insertion point. *)

type blabel
(** Handle for a declared block. *)

val block : t -> string -> blabel
(** Declare (but do not enter) a new block.
    Exported with {!switch_to}, {!br} and {!cbr} as the block API the
    structured combinators are built on. *)

val switch_to : t -> blabel -> unit
(** Move the insertion point to the start of [blabel] (which must not
    already be terminated). *)

(** {1 Instruction emission} — all emit at the insertion point. *)

val bin : t -> binop -> operand -> operand -> reg
val mov : t -> operand -> reg

val assign : t -> reg -> operand -> unit
(** [assign b r op] writes [op] into the {e existing} register [r] —
    the way to update loop-carried variables. *)

(** [assign_bin b r op a c] is [r <- a op c] into an existing
    register. *)
val assign_bin : t -> reg -> binop -> operand -> operand -> unit
val load : t -> space -> operand -> int -> reg
val store : t -> space -> operand -> int -> operand -> unit
val alloca : t -> int -> reg
(** Exported so that hand-built programs can emit [Alloca]; no
    workload uses it. *)

val lock : t -> operand -> unit
val unlock : t -> operand -> unit
val durable_begin : t -> unit
val durable_end : t -> unit
val call : t -> string -> operand list -> reg
val call_void : t -> string -> operand list -> unit
val intr : t -> intrinsic -> operand list -> reg
val intr_void : t -> intrinsic -> operand list -> unit

(** {1 Terminators} *)

val br : t -> blabel -> unit
val cbr : t -> operand -> blabel -> blabel -> unit
val ret : t -> operand option -> unit

(** {1 Structured control flow} *)

val if_ : t -> operand -> then_:(unit -> unit) -> else_:(unit -> unit) -> unit
(** [if_ b cond ~then_ ~else_] emits a diamond; both branches join at a
    fresh block which becomes the insertion point.  Branch bodies must
    not terminate the current block themselves unless they diverge
    (e.g. [ret]); a non-terminated branch falls through to the join. *)

val while_ : t -> cond:(unit -> operand) -> body:(unit -> unit) -> unit
(** [while_ b ~cond ~body]: evaluates [cond] in a fresh header block,
    runs [body] while it is nonzero; insertion point ends at the exit
    block. *)

val finish : t -> func
(** Seal the function.
    @raise Failure if any declared block lacks a terminator. *)
