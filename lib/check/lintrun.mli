(** Driver for the static crash-consistency linter over the shipped
    workloads and the seeded-bug mutation corpus.

    The sweep is the static twin of {!Engine.explore}: where the
    crash-matrix engine witnesses persist-order violations on explored
    schedules, the sweep proves hook placement and write-ahead order on
    all paths of every supported workload/scheme pair.  Both are wired
    into CI; the mutation corpus keeps the linter honest by asserting
    it still catches each seeded bug by its stable code. *)

open Ido_runtime
open Ido_analysis

type pair = {
  scheme : Scheme.t;
  workload : string;
  diags : Diag.t list;
}

val sweep :
  ?pool:Ido_util.Pool.t ->
  ?chunk:int ->
  ?schemes:Scheme.t list ->
  ?workloads:string list ->
  unit ->
  pair list
(** Lint every supported scheme/workload pair ({!Engine.supported}),
    in deterministic (workload-major) order.  Defaults to all schemes
    and all {!Ido_workloads.Workload.names}.  [chunk] batches pairs
    per pool task ({!Ido_util.Pool.opt_map_list}); results are
    byte-identical at every [-j] and chunk size. *)

type outcome = {
  mutant : Ido_lint.Mutate.t;
  mdiags : Diag.t list;
  caught : bool;  (** the expected code is among [mdiags] *)
}

val run_mutant : Ido_lint.Mutate.t -> outcome
(** Apply the mutant at its stage (transform before or after
    instrumentation; hook-model variants lint the intact program
    against the buggy protocol) and lint. *)

val run_corpus : ?pool:Ido_util.Pool.t -> ?chunk:int -> unit -> outcome list
(** Every {!Ido_lint.Mutate.corpus} entry, in corpus order. *)
