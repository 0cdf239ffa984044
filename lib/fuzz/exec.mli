(** Candidate evaluation: one {!Input.t} through the full pipeline.

    An input the VM does not run ({!Input.static_only}: it carries
    edits, a variant or an unlocked tree) is taken through edits →
    instrumentation → the static linter.  Every other input runs under
    the crash-injection engine, unlinted: one crash-free probe plus one
    crashed probe per crash point
    in the input, each validated (registry oracle for workload bases,
    all-or-nothing heap equality for random genomes) and reconciled
    against the obs counters over its whole window.  Every probe
    streams its events into one coverage accumulator ({!Cov.acc})
    through its sink's tap; none is buffered.  The crash-free probe's
    stream also yields the crash-point schedule and the crash-reseeding
    hints, so no separate recording run is needed.

    A {!cache} holds, per (scheme, base, [opt]), a {e base record} —
    the crash-free probe's failures, features, schedule length and
    hints — and the boot image of the base's arena
    ({!Ido_check.Engine.arena}): the machine as the durable setup phase
    leaves it ({!Ido_vm.Vm.boot_image}), which every later run of the
    base restores into a new machine instead of setting up again.
    A candidate on a base with no record first records it: the
    crash-free probe runs on an arena ({!Ido_check.Engine.probe}
    [~arena]), which boots in full and keeps the boot image.  A
    candidate on a recorded base never repeats the crash-free run:
    with no crash points its outcome is the record's and it boots
    nothing.  Either way, the crash points then go through one
    {!Ido_check.Engine.crashed_probes} call: each is resolved against
    the recorded length to [c mod (length + 1)], and one forward run
    from the boot image, as far as the last of them, captures the crash
    images that the crashed probes restore.  The candidate's features
    are the record's unioned with the crashed probes'.  The outcome is
    the one
    from-boot probes ({!Ido_check.Engine.probe}) give, byte for byte:
    features, schedule, hints and failures, in the input's crash order,
    duplicates included — so it does not depend on what the cache
    holds.

    Failures carry stable codes:
    - the linter's own [L]-codes for static findings;
    - [F701] — validation failed after crash + recovery (torn heap /
      oracle violation);
    - [F702] — recovery itself raised;
    - [F703] — obs/pmem counter reconciliation failed;
    - [F801] — instrumentation or machine construction raised. *)

type failure = {
  f_codes : string list;  (** sorted, deduplicated stable codes *)
  f_detail : string;  (** first diagnostic / error message *)
}

type outcome = {
  o_input : Input.t;
  o_features : int array;  (** union over all runs; sorted, deduped *)
  o_schedule : int;
      (** crash-point events of the crash-free worker phase (the
          length {!Ido_check.Engine.record} returns); [0] if static *)
  o_failure : failure option;
  o_hints : int list;
      (** crash indices at fence/lock events of that schedule —
          where region boundaries and FASE transitions persist *)
}

val instrumented : ?opt:bool -> Input.t -> Ido_ir.Ir.program
(** The input's program after stage-ordered edits and instrumentation;
    [~opt:true] additionally runs the persistence-redundancy optimizer
    ([Ido_opt]) between instrumentation and the [After_instrument]
    edits, mirroring the VM's own load path.
    @raise Failure when an edit or the instrumenter rejects it. *)

type cache
(** Base records and boot images shared by the runs of one campaign.
    Safe to share between domains: a mutex guards it, and each run
    restores the images it reads into a machine of its own. *)

val cache : unit -> cache
(** An empty cache.  It keeps every base's record and boot image (4 KiB
    per page the setup phase wrote plus the volatile state; about 50 KB
    on average over the default pairs) for as long as the cache
    lives. *)

val run : ?cache:cache -> ?opt:bool -> Input.t -> outcome
(** Deterministic: same input (and [opt]), same outcome (features
    included), whatever [cache] holds.  Without [cache] the run uses a
    fresh one. *)

val primary_code : outcome -> string option
(** The first failure code, the finding's identity for deduplication
    ([None] when the outcome is clean). *)
