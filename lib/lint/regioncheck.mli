(** Hook-placement conformance: does the instrumented function carry
    exactly the hooks its scheme's contract (instrument.mli) demands?

    The instrumented function is stripped of hooks, the stripped
    function is re-analysed (FASE structure, and under iDO the full
    idempotent-region plan), and the expected hook placement is
    recomputed and compared against the hooks actually present.  The
    oracle restates the instrumentation contract independently of
    [Ido_instrument] — which depends on this library for its lint
    post-pass — so the restatement both breaks the dependency cycle
    and double-checks the pass against its spec.

    Codes:
    - [L105] missing/extra FASE entry or exit hook
    - [L106] missing/extra lock-record or commit hook
    - [L107] lock-release hook disagrees about outermost-ness
    - [L401] region-plan cut without its boundary hook
    - [L402] required (WAR-separating) cut marked elidable
    - [L403] boundary hook at a position the plan does not cut
    - [L404] boundary hook metadata (id, registers, release flag)
      diverges from the plan

    The expected placement is read from the scheme's
    {!Ido_runtime.Scheme.props} by code of its own, never by calling
    the instrumentation pass.  Per-store log hooks are owned by
    {!Transfer} ([L201]..[L203]) and ignored here.  Transactions
    (Mnemosyne) are skipped entirely: their instrumentation
    {e replaces} lock operations, so the pre-image cannot be
    reconstructed from the instrumented function.  So is a scheme with
    no FASEs (Origin), which {!Transfer} already holds to no hooks. *)

open Ido_ir
open Ido_analysis
open Ido_runtime

val check : Scheme.t -> Ir.func -> Diag.t list

val strip : Ir.func -> Ir.func
(** The function with every hook removed (used by tests and by the
    linter driver to re-derive plans). *)

val has_hooks : Ir.func -> bool
