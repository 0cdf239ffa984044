(** A fuzz input: everything one candidate execution depends on.

    An input names a {e base program} — either a registry workload or
    a random-CFG genome (the single-FASE tree shape of the PR-1
    idempotence corpus, plus an [Unlocked] constructor for lock-scope
    perturbation) — together with instrumentation-level edits
    ({!Ido_lint.Mutate.edit}), an optional buggy hook-protocol variant,
    and the crash schedule to inject.  Inputs are plain data with a
    stable one-line NDJSON encoding, so the corpus survives on disk
    and a finding replays from its corpus entry alone. *)

open Ido_runtime

type op =
  | Load of int  (** v1 <- cells[k] *)
  | Store of int * int  (** cells[k] <- v1 + v *)
  | Addi of int  (** v2 <- v2 + k *)
  | Mix  (** v1 <- v1 xor v2 *)

type tree =
  | Seq of op list
  | If of op list * op list
  | Loop of int * op list
  | Unlocked of op list
      (** ops emitted {e after} the FASE's unlock — the lock-scope
          perturbation; such genomes are evaluated statically only *)

type base =
  | Workload of string  (** a {!Ido_workloads.Workload.names} entry *)
  | Random of tree list

type t = {
  scheme : Scheme.t;
  base : base;
  edits : Ido_lint.Mutate.edit list;  (** applied in order, at their stage *)
  variant : Ido_runtime.Protocol.fault option;
      (** a seeded runtime protocol fault, checked statically *)
  crashes : int list;
      (** raw crash points; injected modulo the crash-free schedule
          length (+1 for the terminal index) *)
}

val tree_ops : tree -> op list
(** All ops of a tree, in emission order (both branches of an [If]). *)

val make :
  ?edits:Ido_lint.Mutate.edit list ->
  ?variant:Ido_runtime.Protocol.fault ->
  ?crashes:int list ->
  scheme:Scheme.t ->
  base ->
  t

val size : t -> int
(** Structural size (trees, ops, loop trips, edits, variant, crash
    points) — the measure shrinking must strictly decrease. *)

val static_only : t -> bool
(** Evaluate through the linter only: the input carries seeded bugs,
    edits or a variant (the VM cannot execute hook-edited programs),
    or its genome has [Unlocked] ops (outside any FASE, the
    all-or-nothing heap oracle does not apply). *)

val label : t -> string
(** Short deterministic display label ("justdo/queue+del-hook:3"). *)

val cells : int
(** Persistent cell-array length of generated programs. *)

val initial_cell : int -> int64
(** Seed value of cell [i] (distinguishable, nonzero). *)

val source_program : t -> Ido_ir.Ir.program
(** The hook-free source program of the base (before edits and
    instrumentation).  Random genomes build init/worker entries over a
    {!cells}-word array, one lock-delineated FASE per worker run. *)

(** {1 Codec}

    The textual forms use only characters that survive the repo's
    minimal JSON field scanner unescaped. *)

val base_to_string : base -> string
(** ["workload:queue"] or ["random:<tree-dsl>"]. *)

val base_of_string : string -> base option
(** Exported as the inverse of {!base_to_string} that {!of_json} is
    built on. *)

val json_fields : t -> string
(** The input's fields as a JSON object fragment
    (["\"scheme\":...,\"base\":...,..."], no braces). *)

val of_json : fail:(string -> exn) -> string -> t
(** Parse a line containing {!json_fields}; raises [fail]'s exception
    on malformed input, including a variant that names no
    {!Ido_runtime.Protocol.fault}. *)
