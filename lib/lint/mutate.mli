(** Mutation corpus: seeded crash-consistency bugs with the diagnostic
    the linter must report for each.

    Every mutant names a workload, a scheme, and the stable error code
    the linter is expected to emit — the linter's regression suite and
    the [ido_check mutants] CLI assert exactly that.  Two mutants
    re-seed the bugs PR 1's crash matrix caught dynamically
    ([early-publish-justdo], [unfenced-undo-append]); a third
    ([reorder-region-writeback]) seeds the same class in iDO's boundary
    flush.

    Mutants come in three shapes:
    - [Before_instrument] program transforms (source-level bugs, e.g. a
      store hoisted out of its critical section);
    - [After_instrument] program transforms (instrumentation bugs:
      dropped or duplicated hooks, a required cut marked elidable);
    - runtime protocol faults ([variant <> None], with [transform] the
      identity): runtime protocol bugs, checked by linting the intact
      program against the faulted protocol's recorded model. *)

open Ido_ir
open Ido_runtime

type stage = Before_instrument | After_instrument

type t = {
  name : string;
  scheme : Scheme.t;
  workload : string;  (** workload the mutant targets *)
  expect : string;  (** error code the linter must report *)
  stage : stage;
  variant : Protocol.fault option;
      (** the runtime protocol fault checked against, see {!Hook_model} *)
  transform : Ir.program -> Ir.program;
}

val corpus : t list
val find : string -> t option

(** {1 Indexed instrumentation edits}

    The corpus above names one specific hook per mutant; the fuzzer
    ([Ido_fuzz]) instead works over {e indexed} edits — "delete the
    k-th hook", "elide the k-th required cut" — which are plain data,
    so a fuzzer finding serialises into its NDJSON corpus and
    {!ingest} turns it back into a corpus entry here.  Positions count
    matching instructions in function/block/instruction order. *)

type edit =
  | Delete_hook of int  (** delete the k-th hook instruction *)
  | Dup_hook of int  (** duplicate the k-th hook instruction *)
  | Elide_cut of int  (** mark the k-th required region cut skippable *)
  | Drop_cut of int  (** delete the k-th required region cut *)
  | Hoist_store
      (** replay a critical-section store above its lock (the corpus's
          [unlocked-store] shape; a {!Before_instrument} edit) *)

val apply_edit : edit -> Ir.program -> Ir.program
(** Out-of-range positions are the identity (the fuzzer treats such
    candidates as uninteresting rather than erroring). *)

val edit_stage : edit -> stage

val hook_count : Ir.program -> int
(** Hook instructions in an instrumented program — the index space of
    [Delete_hook]/[Dup_hook]. *)

val cut_count : Ir.program -> int
(** Required (non-skippable) region cuts — the index space of
    [Elide_cut]/[Drop_cut]. *)

val edit_to_string : edit -> string
(** Stable textual form (["del-hook:3"], ["hoist-store"], ...). *)

val edit_of_string : string -> edit option

val ingest :
  name:string ->
  scheme:Scheme.t ->
  workload:string ->
  expect:string ->
  ?variant:Protocol.fault ->
  edits:edit list ->
  unit ->
  t
(** Build a corpus entry from serialised edits (a fuzzer finding).
    The stage is inferred from the edits.  Exported as the way a fuzzer
    finding's edits become an entry.
    @raise Invalid_argument when [edits] mixes both stages. *)
