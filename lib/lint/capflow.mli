(** Must-captured-cell dataflow over an instrumented function.

    Tracks, per program point, the set of stable cells ({!Alias.expr})
    whose old value is already captured by the scheme's per-store log
    in the current protection window — the fact that makes a second
    grant for the same cell redundant under the undo/redo/page-log
    disciplines ([grant_elidable] in {!Ido_runtime.Scheme.props}).  Captures come from
    adjacent [grant hook; store] pairs and from {e hoisted} grant
    hooks whose unique consumer store this module resolves.  Joins
    intersect (a capture must hold on {e every} incoming path) and any
    protection-structure change resets the set.

    Both the linter ({!Transfer}) and the optimizer ([Ido_opt]) consume
    this analysis, which is what keeps them agreeing by construction:
    a grant the optimizer deletes is exactly one the linter excuses. *)

open Ido_ir
open Ido_analysis
open Ido_runtime

type cls =
  | Adjacent  (** the next instruction is the consuming store *)
  | Hoisted of Alias.expr
      (** detached, but every path reaching a store consumes it for
          this one stable cell (loop-preheader hoist) *)
  | Orphan  (** detached with no resolvable consumer — an L202 *)

type t

val compute : Scheme.t -> Alias.t -> Ir.func -> t
(** [compute scheme alias f], where [alias] resolves [f]: the caller
    shares its resolver, so a function's reaching definitions are
    computed once per pass. *)

val classify : t -> Ir.pos -> cls
(** Classification of the grant hook at [pos]; [Orphan] for positions
    that hold no grant hook. *)

val mem : t -> Ir.pos -> Alias.expr -> bool

val clears : Ir.instr -> bool
(** Does this instruction end the capture window (lock operations,
    durable/txn boundaries, commits, calls, writing intrinsics)? *)
