(** The failure-atomicity schemes compared in the paper's evaluation,
    with the qualitative properties of Table II. *)

type t =
  | Ido  (** this paper: resumption at idempotent-region granularity *)
  | Atlas  (** OOPSLA'14: UNDO logging, lock-inferred FASEs *)
  | Mnemosyne  (** ASPLOS'11: REDO logging, C++ transactions *)
  | Justdo  (** ASPLOS'16: resumption, per-store logging *)
  | Nvml  (** Intel pmem library: UNDO, programmer-delineated *)
  | Nvthreads  (** EuroSys'17: REDO at page granularity *)
  | Origin  (** uninstrumented, crash-vulnerable baseline *)

val all : t list
val name : t -> string
val of_name : string -> t option

val failure_atomic : t -> bool
(** Whether recovery restores a consistent image after any crash:
    every scheme but [Origin], which persists nothing deliberately and
    has no recovery. *)

val stack_in_pmem : t -> bool
(** Whether simulated thread stacks live in persistent memory: only
    under the resumption schemes (iDO, JUSTDO), whose recovery resumes
    a FASE from its persisted frame. *)

val table2_header : string list
val table2_row : t -> string list
(** One row of Table II: region semantics, recovery method, logging
    granularity, dependence tracking, designed for transient caches. *)

val pp : Format.formatter -> t -> unit
