(** The failure-atomicity schemes compared in the paper's evaluation,
    and the one table of their static properties: Table II plus the
    hook placement rules of Sec. IV.  The instrumentation pass places
    hooks from these fields alone; the linter, the optimizer, the crash
    engine and the fuzzer read them too instead of matching on the
    scheme.  What the runtime does at each hook, and how its recovery
    reads the logs back, is the scheme's {!Protocol}, which the VM runs
    and the linter's hook models are recorded from; {!Protocol.make} is
    the one runtime function that matches on {!t}. *)

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

(** Which program spans the scheme makes failure-atomic. *)
type fase =
  | Lock_inferred
      (** lock-held spans and durable regions; [Hfase_enter] after the
          outermost acquire or [Durable_begin], [Hfase_exit] after the
          outermost release or [Durable_end] *)
  | Durable_only
      (** programmer-delineated durable regions only, bracketed by
          [Hfase_enter]/[Hfase_exit]; lock-based FASEs are left
          uninstrumented (a library, not a compiler) *)
  | Transaction
      (** every FASE is a transaction: the outermost acquire and
          [Durable_begin] become [Htxn_begin], the outermost release
          and [Durable_end] [Htxn_commit], and inner lock operations
          are elided (speculation) *)
  | No_fase  (** nothing is instrumented *)

(** Where an [Hdurable_commit] (flush the FASE's data) goes.  Every
    committing scheme also commits before [Durable_end]. *)
type commit =
  | No_commit
  | At_fase_end  (** before the outermost release *)
  | At_every_release
      (** before every in-FASE release: buffered pages are published at
          each synchronization point, as Dthreads-style visibility
          under non-nested locking requires *)

type props = {
  fase : fase;
  lock_records : bool;
      (** [Hlock_acquired] after every acquire and [Hlock_release]
          before every in-FASE release *)
  commit : commit;
  grant : Ido_ir.Ir.hook option;
      (** the per-store log hook placed before every in-FASE store that
          reaches pmem: persistent stores, and stack stores when
          [stack_in_pmem] *)
  grant_elidable : bool;
      (** a second capture of an already-captured cell in the same
          FASE/txn may be skipped: undo logs restore the oldest value,
          redo and page logs key by cell or page.  JUSTDO's grants are
          not, since each one re-arms the resumption tuple *)
  grant_hoistable : bool;
      (** the grant may sit away from its store (e.g. hoisted to a loop
          preheader), armed until the next qualifying store consumes
          it.  Not Mnemosyne's: its store hook resolves its own log
          entry, so hoisting buys nothing *)
  region_cuts : bool;
      (** an [Hregion] boundary at every cut of the idempotent-region
          plan (iDO) *)
  stack_in_pmem : bool;
      (** thread stacks live in persistent memory: the resumption
          schemes, whose recovery resumes a FASE from its persisted
          frame *)
  failure_atomic : bool;
      (** recovery restores a consistent image after any crash *)
  workloads : string list option;
      (** the only workloads the scheme supports; [None] for all *)
  table2 : string list;
      (** the Table II row: region semantics, recovery method, logging
          granularity, dependence tracking, designed for transient
          caches *)
}

val props : t -> props

val table2_header : string list
