(** Systematic crash-point exploration.

    The simulator is fully deterministic under a fixed config and seed,
    so the schedule of crash-point events ({!Ido_obs.Obs.crash_point}) of a
    run names every interesting power-failure instant: "just before the
    k-th event".  A power failure keeps only the persistence domain, and
    recovery is a function of that image alone, so this engine

    + runs a workload once, recording that schedule (and checking that
      the crash-free run satisfies the workload's model);
    + picks the crash indices [k] to test and runs the workload forward
      once more, capturing at each chosen [k] the image a crash there
      would leave ({!Ido_vm.Vm.crash_image});
    + restores each image into a spare machine, recovers, and validates
      the result against the workload's pure model
      ({!Ido_workloads.Oracle});
    + enumerates all [N + 1] crash points when they fit the budget, and
      falls back to seeded stratified sampling when they do not;
    + shrinks any violation to the smallest failing index it can
      afford and prints a replayable repro line.

    Index [k] with [k < N] crashes just before event [k]; index [N]
    (the terminal index) lets the run finish and crashes at idle,
    covering the "power fails before the caches drain" case.
    {!inject} stays the from-boot reference: it re-executes from scratch
    and crashes the live machine, and a restored image reaches the same
    verdict, digest, recovery statistics and clock. *)

open Ido_runtime
open Ido_workloads

type spec = {
  scheme : Scheme.t;
  workload : string;  (** a {!Workload.names} entry *)
  seed : int;
  threads : int;
  ops : int;  (** operations per worker thread *)
  cache_lines : int;
  oracle_mode : Oracle.mode;
  opt : bool;
      (** run the persistence-redundancy optimizer ([Ido_opt]) over
          the instrumented program before executing *)
}

val supported : Scheme.t -> string -> bool
(** The workload has an oracle and is among the scheme's
    {!Ido_runtime.Scheme.props} [workloads]: NVML protects only
    programmer-delineated durable regions, so it is meaningful only on
    [objstore]; every other scheme covers every workload. *)

val defaults :
  ?threads:int ->
  ?ops:int ->
  ?cache_lines:int ->
  ?strict:bool ->
  ?seed:int ->
  ?opt:bool ->
  scheme:Scheme.t ->
  workload:string ->
  unit ->
  spec
(** Sensible bounded defaults: 3 worker threads (1 for the
    single-threaded [objstore]), 60 ops per thread, the VM's default
    cache geometry, seed 42.  The oracle mode is [Atomic] for every
    instrumented scheme and [Prefix] for Origin; [~strict:true] forces
    [Atomic] even for Origin (used to demonstrate a real
    counterexample).
    @raise Invalid_argument on an unsupported scheme/workload pair, or
    when [threads], [ops] or [cache_lines] is below 1. *)

val base_spec : spec -> Ido_harness.Spec.t
(** The shared serialisable fields (scheme, workload, seed, threads,
    ops) as a harness spec — the trace header writes exactly these,
    via {!Ido_harness.Spec.json_fields}. *)

val of_base :
  ?cache_lines:int ->
  ?oracle_mode:Oracle.mode ->
  ?opt:bool ->
  Ido_harness.Spec.t ->
  spec
(** Rebuild an engine spec from a harness spec, defaulting the cache
    geometry and deriving the oracle mode from the scheme ([Prefix]
    for Origin, [Atomic] otherwise) unless overridden.
    @raise Invalid_argument when [threads], [ops] or [cache_lines] is
    below 1 (a hand-edited trace header). *)

val record : spec -> Ido_obs.Obs.kind array
(** Run once, crash-free, and return the persist-event schedule of the
    worker phase (setup/init events are excluded; they are made
    durable before workers start). *)

type injection = {
  index : int;
  event : string option;
      (** description of the event the crash preceded; [None] for the
          terminal index *)
  verdict : (unit, string) result;
}

val inject : spec -> int -> injection
(** Re-execute from boot, crash just before event [index] (or at idle
    if [index] is past the schedule), recover, validate — the
    reference that [ido_check replay] runs. *)

type outcome = {
  o_injection : injection;
  o_stats : Ido_vm.Recover.stats option;  (** [None]: recovery raised *)
  o_digest : string;
      (** {!Oracle.digest} of the recovered, flushed image *)
  o_clock : Ido_util.Timebase.ns;  (** {!Ido_vm.Vm.clock} after recovery *)
}
(** What one injection leaves behind, for comparing crash paths. *)

val inject_outcomes : spec -> int array -> outcome array
(** {!inject} at each index, each run from boot: the first on a fresh
    machine, which then keeps a {!Ido_vm.Vm.boot_image} of its set-up
    state, the rest on the same machine restored from that image, which
    runs byte-identically to a fresh one without re-running setup.
    Exported as the from-boot reference for the restore paths. *)

val restored_outcomes : spec -> int array -> outcome array
(** The same injections at strictly ascending [indices], each restored
    from a crash image taken during one forward run, through the same
    capture-and-restore loop {!explore} runs.  Equal to
    {!inject_outcomes} at every index.  Exported as the differential
    check of {!explore}'s restore loop.
    @raise Invalid_argument when the indices do not ascend or one is
    negative. *)

type report = {
  spec : spec;
  total_events : int;
  tested : int;  (** distinct crash indices actually injected *)
  exhaustive : bool;
  violations : injection list;  (** failing injections, ascending *)
  counterexample : injection option;
      (** smallest failing index found after shrinking *)
}

val explore :
  ?progress:(int -> int -> unit) ->
  ?pool:Ido_util.Pool.t ->
  spec ->
  budget:int ->
  report
(** Record (validating the crash-free end state against the [Atomic]
    oracle), then inject at up to [budget] distinct indices (all of
    them when [total_events + 1 <= budget], else one per stratum of a
    [budget]-way split, chosen by a generator derived from the spec
    seed).  One forward run captures the crash image of every chosen
    index in ascending order; each injection restores its image,
    recovers and validates, exactly as a from-boot {!inject} would.
    If any violation surfaces in sampled mode, the untested indices
    below the first failure (at most 512, ascending) are tried from a
    further forward run, which stops at the first failure, to shrink
    the counterexample.  [progress] receives [(done, planned)] after
    each injection.

    Every run happens on the calling domain, on two arena machines:
    one for the recording and forward runs, which sets up once and
    restores its boot image for every later run, one that each crash
    image is restored into as soon as it is taken, so one crash image
    is held at a time.  [?pool] is accepted like every other sweep's, but the
    forward run is serial and dispatching its images to pool workers
    measured slower than restoring them in place, so it does not change
    the run; the report is the same at every [-j].
    @raise Invalid_argument when [budget < 1].

    A crash-free run that fails the oracle means the harness or
    workload itself is broken and raises [Failure]. *)

val repro_line : spec -> int -> string
(** The exact [ido_check replay ...] invocation reproducing one
    injection. *)

(** {1 Traced runs}

    A traced run is an {!inject}-style execution (or a crash-free one)
    with an {!Ido_obs.Obs} sink attached over the worker phase, the
    injected crash, and recovery.  {!inject}, {!run_traced} and
    {!probe} share one injection routine, so at the same index they
    crash before the same event and reach the same verdict.
    Afterwards {!Ido_vm.Vm.obs_check} reconciles the sink's rollup
    against the pmem counter deltas of the same window — a
    disagreement means the VM lost or duplicated an emission. *)

type traced = {
  t_spec : spec;
  t_index : int option;  (** [None]: the run was crash-free *)
  t_injection : injection option;
      (** present exactly when [t_index] is: the injection's verdict *)
  t_digest : string;  (** {!Oracle.digest} of the final durable image *)
  t_obs : Ido_obs.Obs.t;  (** the sink, fully buffered *)
  t_consistency : (unit, string) result;
      (** {!Ido_vm.Vm.obs_check} over the observed window *)
}

val run_traced : ?index:int -> spec -> traced
(** Deterministic under the spec (and [index]): re-running yields the
    same event stream, digest, and verdict — the basis of trace
    replay ({!Trace}). *)

(** {1 Custom probes}

    The fuzzer ([Ido_fuzz]) drives {e generated} programs — not
    registry workloads — through the same machine lifecycle, crash
    injection protocol and observed window as a spec-described run.  A
    [custom] bundles the program with its validation closure; the
    closure runs on the final machine (after recovery and a full
    flush) so it can inspect the durable heap directly. *)

type custom = {
  c_program : Ido_ir.Ir.program;
  c_scheme : Scheme.t;
  c_seed : int;
  c_cache_lines : int;
  c_threads : int;
  c_worker_arg : int64;  (** argument passed to each ["worker"] spawn *)
  c_opt : bool;  (** optimize the instrumented program before running *)
  c_validate : Ido_vm.Vm.t -> (unit, string) result;
}

val custom_of_spec : spec -> custom
(** The spec's program/geometry with a vacuous validator (callers
    wanting the oracle verdict use {!run_traced}). *)

type probe = {
  pr_index : int option;  (** [None]: the run was crash-free *)
  pr_event : string option;
      (** description of the event the crash preceded *)
  pr_verdict : (unit, string) result;
      (** [c_validate] on the final machine; recovery raising is
          reported as an [Error] here, as in {!inject} *)
  pr_consistency : (unit, string) result;
      (** {!Ido_vm.Vm.obs_check} of [obs] over the observed window *)
}

type arena
(** A reusable machine for the runs of one custom.  Unless it was given
    a boot image, its first boot creates the machine, runs the durable
    setup phase and keeps a {!Ido_vm.Vm.boot_image} of the result;
    every other boot restores that image instead.  An arena is not safe
    to share between domains, its image is. *)

val arena : ?boot:Ido_vm.Vm.boot_image -> custom -> arena
(** An arena that has booted nothing yet, starting from [boot] (taken
    by {!arena_image} from an arena of a custom with the same program
    and geometry) when given.  Only its custom's program and geometry
    matter: probes run on it may bring their own validators. *)

val arena_image : arena -> Ido_vm.Vm.boot_image option
(** The arena's boot image, once it has booted. *)

val probe : ?arena:arena -> ?index:int -> obs:Ido_obs.Obs.t -> custom -> probe
(** One run of a custom program observed by [obs] (a fresh sink),
    crash-free or crashed just before event [index] — {!run_traced}
    without the registry oracle.  Deterministic under the custom and
    [index].  The run boots on [arena] when given (which must come from
    a custom with the same program and geometry), else on a fresh
    machine, and when crashed re-runs the whole prefix up to [index]:
    the from-boot reference that {!crashed_probes} reproduces from one
    forward run.

    The crash-free run emits the same worker-phase event stream that
    {!record} would return for the same program and geometry: the
    crash-injection hook sees exactly the {!Ido_obs.Obs.crash_point}
    subsequence of the sink's stream, and the final
    {!Ido_vm.Vm.flush_all} emits nothing.  A sink with a [tap]
    therefore derives a run's crash-point schedule without a separate
    recording run. *)

val crashed_probes :
  arena:arena ->
  length:int ->
  at:int list ->
  obs:(unit -> Ido_obs.Obs.t) ->
  validate:(Ido_vm.Vm.t -> (unit, string) result) ->
  probe list
(** [probe ~index] of the arena's custom with [validate] as its
    validator, at each crash point of [at] resolved against the
    crash-free schedule's [length] ([index = c mod (length + 1)]), in
    [at]'s order, duplicates included; [[]] for an empty [at], which
    boots nothing.  One forward run boots the arena and runs only as
    far as the last resolved index, capturing the
    {!Ido_vm.Vm.crash_image} at each one through the same capture loop
    as {!explore}; each probe then restores its image into the same
    machine, recovers, flushes and validates.  Its sink, [obs ()] (a
    fresh one per probe), sees only the events after the crash point:
    the [Crash] event, recovery's events and the final flush, exactly
    the suffix a from-boot probe's sink sees, while [pr_consistency]
    reconciles the whole window from boot (the forward run's prefix
    plus this sink).
    @raise Invalid_argument on a negative resolved index, as {!probe}. *)

type boots = {
  full : int;  (** set up by running [init] *)
  restored : int;  (** restored from an arena's boot image *)
}

val boots : unit -> boots
(** Machines booted by every engine run in this process so far: each
    from-boot {!probe} or injection boots one — in full on a new
    machine, from the boot image on an arena that has booted before —
    and a {!crashed_probes} call one for all its probes.  One-shot
    boots ({!record}, {!probe} without an arena, {!inject},
    {!run_traced}) take no boot image.
    Exported as the only view of boot accounting; the fuzz tests count
    boots with it. *)

val heap_words : Ido_vm.Vm.t -> base:int -> len:int -> int64 array
(** [len] persistent words starting at [base] — the raw material of a
    custom validator's all-or-nothing heap comparison. *)

val probe_root : Ido_vm.Vm.t -> int64
(** Root slot 0 of the machine's region (where the generated programs
    park their cell-array descriptor). *)
