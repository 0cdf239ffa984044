(** Scheme-specific instrumentation (Fig. 4).

    One rewrite takes a validated, hook-free program and returns the
    same program with runtime hooks inserted (and, for transactions,
    lock operations replaced by transaction boundaries).  Registers and
    block structure are preserved, so the analyses computed on the
    original function remain valid for the instrumented one.

    The insertion rules are the scheme's {!Ido_runtime.Scheme.props}:
    its FASE kind places [Hfase_enter]/[Hfase_exit] or the transaction
    boundaries, [lock_records] the lock-ownership hooks around each lock
    operation, [commit] the [Hdurable_commit]s, [grant] the per-store
    log hook before every in-FASE store that reaches pmem, and
    [region_cuts] an [Hregion] boundary at every cut of
    {!Ido_analysis.Regions} (after acquires, before releases, at
    in-FASE loop headers, and at the hitting-set cuts for WAR pairs).
    At a site carrying several hooks the order is: cut, commit, lock
    release, the instruction, FASE enter or exit, lock acquired.
    Origin ([No_fase]) is the identity.  {!Ido_lint.Regioncheck}
    restates these rules independently and checks the output against
    them. *)

open Ido_ir
open Ido_runtime

val instrument : ?lint:bool -> ?opt:bool -> Scheme.t -> Ir.program -> Ir.program
(** Instrument every function.  With [~lint:true] the result is passed
    through the static crash-consistency linter
    ({!Ido_lint.Lint.lint_program}) as a post-pass and [Failure] is
    raised if any diagnostic fires — a self-check that the hooks just
    inserted satisfy their own contract. *)

val region_plan : Ir.func -> Ido_analysis.Regions.t
(** The iDO region plan of a function (exposed for region statistics
    and tests). *)
