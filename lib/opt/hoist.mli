(** O104 — loop-invariant grant hoisting.  Moves the single grant hook
    of a clear-free loop body to the loop preheader when every path
    from the preheader reaches the hook's store — and only that store —
    first.  Only under schemes whose grant is hoistable
    ({!Ido_runtime.Scheme.props}); the moved hook arms the VM's grant
    slot ([State.armed]). *)

open Ido_ir
open Ido_runtime

val run : Scheme.t -> string -> Ir.func -> Ir.func * Rewrite.t list
