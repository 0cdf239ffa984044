(** O101 — redundant durable-commit elision.  Deletes an
    [Hdurable_commit] hook that {!Ido_lint.Dirtyflow} proves sits on
    clean lines on every incoming path.  Atlas, NVML and NVThreads
    only (the schemes that emit the hook). *)

open Ido_ir
open Ido_runtime

val run : Scheme.t -> string -> Ir.func -> Ir.func * Rewrite.t list
