(** Public face of the simulated machine.

    Typical lifecycle:

    {[
      let m = Vm.create (Vm.config Scheme.Ido) program in
      let _init = Vm.spawn m ~fname:"init" ~args:[] in
      ignore (Vm.run m);
      Vm.flush_all m;                       (* setup phase made durable *)
      let _ = Vm.spawn m ~fname:"worker" ~args:[ 0L ] in
      (match Vm.run ~until:(Timebase.ms 10) m with
      | `Until -> Vm.crash m
      | _ -> ());
      let _stats = Vm.recover m in
      ...
    ]} *)

open Ido_util
open Ido_ir
open Ido_runtime

type t = State.t

type config = State.config = {
  scheme : Scheme.t;
  latency : Ido_nvm.Latency.t;
  pmem_words : int;
  cache_lines : int;
  seed : int;
  stack_words : int;
  undo_cap : int;
  redo_cap : int;
  page_cap : int;
  collect_region_stats : bool;
  opt : bool;
      (** run the persistence-redundancy optimizer ([Ido_opt]) over the
          instrumented program at load time; every applied rewrite is
          verified (re-lint + crash matrix) by [ido_check optimize] *)
  elide_clean_boundaries : bool;
      (** ablation: skip lock-induced boundary persists for clean
          regions (on in real iDO) *)
  coalesce_registers : bool;
      (** ablation: persist coalescing of register logs (Sec. IV-B) *)
  single_fence_locks : bool;
      (** ablation: indirect locking (Sec. III-B); off reverts to
          JUSTDO-style two-fence lock operations *)
}

val config : Scheme.t -> config
(** Defaults sized for the benchmarks in this repository. *)

type run_outcome = [ `Idle | `Until | `Max_steps | `Deadlock ]

exception Vm_error of string

val create : config -> Ir.program -> t
(** Validate, instrument for the configured scheme, and boot a fresh
    machine with a formatted persistent region. *)

val reset : t -> unit
(** Return the machine to its just-{!create}d state in place, reusing
    the instrumented image and every large allocation.  Subsequent runs
    are byte-identical to runs on a fresh machine built from the same
    config and program; previously obtained thread handles become
    invalid and any tracer/event hook/obs sink is removed.  A machine
    that boots repeatedly sets up once and then restores a
    {!boot_image} instead, which also skips [init]. *)

type thread = State.thread

val spawn : t -> fname:string -> args:int64 list -> thread
(** Start a thread running [fname] with [args] bound to its parameters.
    @raise Invalid_argument for an unknown function or when [args] does
    not match its parameter count (the same arity rule {!create}'s
    validation applies to every [Call]). *)

val run : ?until:Timebase.ns -> ?max_steps:int -> t -> run_outcome
(** Advance simulated execution.  [`Idle]: every thread finished.
    [`Until]: the earliest runnable thread reached the time bound
    (crash injection point).  [`Deadlock]: runnable set empty while
    threads remain blocked. *)

val reap : t -> unit
(** Drop finished threads from the scheduler's table, first raising the
    machine's clock floor so {!clock} (and where fresh spawns start)
    is unchanged.  Long-lived machines that spawn one thread per unit
    of work — the request-serving layer — call this between dispatches
    to keep scheduling O(live threads) instead of O(threads ever
    spawned).  Reaped thread records stay valid for {!observations} /
    {!thread_clock}; they are only removed from scheduling. *)

val crash : t -> unit
(** Power failure now: volatile state (cache overlay, DRAM, transient
    locks, threads) is discarded; only persisted lines survive. *)

type crash_image
(** A power failure's survivors, held apart from any machine. *)

val crash_image : t -> crash_image
(** Exactly the state {!crash} would leave behind, captured without
    changing the machine: the persistence domain (the whole cache too,
    on an NV-cache machine), the eviction generator, the pmem counters,
    and the machine's generator, clock floor and thread, FASE, sequence
    and commit counters.  Everything else a crash discards.  Taking
    images from the event hook ({!set_event_hook}) of one run yields
    the post-crash state of many crash instants from a single run.

    An image holds a copy of every page the machine has written (4 KiB
    each), so keep only the images still to be restored. *)

val restore_crashed : t -> crash_image -> unit
(** Put the machine into the image's post-crash state, ready for
    {!recover}: the machine must come from the same config and program
    as the one imaged.  Afterwards {!recover} and everything after it
    behave exactly as after {!crash} on the imaged machine.  Like
    {!reset} it reuses the machine's large allocations and removes any
    tracer, event hook or obs sink; the {!region_stats} collectors
    start empty.  {!crash} itself stays in place and copies nothing.
    @raise Invalid_argument when the image comes from a machine with
    another persistent-memory size. *)

type boot_image
(** A whole idle machine, volatile state included, held apart from any
    machine. *)

val boot_image : t -> boot_image
(** The machine as it stands after {!run_init}: every thread finished,
    the overlay empty.  Unlike a {!crash_image} it also keeps what a
    power failure loses — DRAM, the lock and write-version tables, the
    finished threads, the {!region_stats} collectors — so nothing needs
    recovering.  Like a crash image it copies every page the machine
    has written.
    @raise Invalid_argument when a thread has not finished, the machine
    has crashed, or a dirty line or a write-back is pending. *)

val restore_boot : t -> boot_image -> unit
(** Put the machine into the image's state: the machine must come from
    the same config and program as the one imaged.  Every run
    afterwards is byte-identical to the same run on the imaged machine
    — event stream, clocks, pmem counters, {!total_ops} — so a machine
    that boots repeatedly pays {!run_init} once and restores the image
    after that.  Like {!reset} it reuses the
    machine's large allocations and removes any tracer, event hook or
    obs sink.  The image is only read: it may be restored any number
    of times.
    @raise Invalid_argument when the image comes from a machine with
    another persistent-memory size. *)

val recover : t -> Recover.stats
(** Scheme-appropriate recovery; afterwards the machine accepts fresh
    [spawn]s against the recovered heap. *)

val flush_all : t -> unit
(** Test/setup helper: make all of persistent memory durable. *)

val run_init : t -> unit
(** Durable setup: run the program's [init] function to idle, then
    {!flush_all}, so the populated structure stands in for a
    pre-existing persistent region.
    @raise Failure when [init] does not reach idle. *)

(** {1 Introspection} *)

val clock : t -> Timebase.ns
(** Largest thread clock — the wall-clock length of the run so far. *)

val total_ops : t -> int
(** Observations recorded via the [Observe] intrinsic. *)

val observations : thread -> int64 list
(** Oldest first. *)

val thread_clock : thread -> Timebase.ns

val pmem : t -> Ido_nvm.Pmem.t
val region : t -> Ido_region.Region.t

val set_tracer : t -> (string -> unit) option -> unit
(** Install (or remove) an execution tracer: one formatted line per
    executed instruction — thread, simulated time, position, FASE
    membership, instruction text.  Survives across crash/recovery, so
    resumption can be watched. *)

val set_event_hook : t -> (Ido_obs.Obs.kind -> unit) option -> unit
(** Install (or remove) the crash-injection hook.  It receives every
    event satisfying {!Ido_obs.Obs.crash_point} — stores, write-backs,
    fences, evictions, lock acquires and releases — in emission order,
    {e before} each takes effect; raising from it aborts {!run} with
    the persistent image exactly as a power failure at that instant
    would leave it — the crash-injection mechanism used by [Ido_check].
    Events fire regardless of scheme; the stream is deterministic under
    a fixed config and seed, so "the k-th event" names one precise
    power-failure instant. *)

val set_obs : t -> Ido_obs.Obs.t option -> unit
(** Install (or remove) the observability sink (see {!Ido_obs.Obs}).
    While installed, the machine feeds it every event of the same
    stream — persist-level and VM-level alike: log appends, region
    boundaries, lock operations, FASE enter/exit, crash and recovery
    steps — tagged with thread and FASE ids, after the injection hook
    has seen it.  With neither sink nor hook installed the machine
    performs no event work at all.  Unlike the crash-injection
    {!set_event_hook}, the sink must never raise.  Installation does
    not perturb execution: clocks, scheduling, and the persist-event
    schedule are identical with and without a sink.

    Installing (or removing) a sink also opens the observed window of
    {!obs_check}: the pmem counters are snapshotted here. *)

val obs_check : t -> (unit, string) result
(** Reconcile the installed sink's rollup against the pmem counter
    deltas since the {!set_obs} call that installed it
    ({!Ido_obs.Obs.check}): [Error] names the first counter whose event
    count disagrees — a lost or duplicated emission.  [Ok ()] when no
    sink is installed.  Call it before removing the sink. *)

val region_stats : t -> Cdf.t * Cdf.t
(** (stores per dynamic idempotent region, live-in registers per
    region) — the Fig. 8 distributions; populated under the iDO
    scheme when the configuration's [collect_region_stats] is set. *)

val undo_records_total : t -> int
(** Total UNDO records ever appended across threads (drives the
    Table I recovery-time model). *)
