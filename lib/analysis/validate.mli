(** Static well-formedness checks for IR programs.

    Beyond structural checks (branch targets, register bounds, call
    arities), the validator enforces the programming model of
    Sec. II-B for resumption-based recovery:

    - FASEs are confined to a single function (no return with a lock
      held) and have consistent lock depth at joins;
    - no [Call] inside a FASE (Sec. IV-A-a assumption);
    - no non-idempotent intrinsics ([Rand], [Observe], [Nv_free])
      inside a FASE;
    - no transient loads or stores inside a FASE (a resumed region
      would re-read lost data);
    - [Alloca] only in the entry block, outside any FASE;
    - reducible control flow. *)

open Ido_ir

val check_program_diags : ?allow_hooks:bool -> Ir.program -> Diag.t list
(** Every violation, as structured diagnostics with stable codes:
    per-function checks (V101–V120) plus call-graph checks (targets
    exist, arity matches, function names unique; V130–V133).
    [allow_hooks] (default false) permits instrumentation hooks — used
    to re-validate instrumented output.
    The diagnostic API; {!check_program_exn} is built on it. *)

val check_program_exn : ?allow_hooks:bool -> Ir.program -> unit
(** @raise Failure with every diagnostic in {!Diag.render}'s form, one
    per line. *)
