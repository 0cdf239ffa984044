(** O103 — duplicate log-capture elision.  Deletes an adjacent grant
    hook whose store's stable cell is already must-captured
    ({!Ido_lint.Capflow}) in the current protection window.  Only under
    schemes whose grant is elidable ({!Ido_runtime.Scheme.props}) —
    never JUSTDO, whose every store hook re-arms the resumption
    tuple. *)

open Ido_ir
open Ido_runtime

val run : Scheme.t -> string -> Ir.func -> Ir.func * Rewrite.t list
