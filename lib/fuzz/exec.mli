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

    The candidate boots one machine.  Its crash-free probe is the one
    forward run ({!Ido_check.Engine.probe_forward}): at every crash
    point of the input that the run reaches it captures a crash image
    and the accumulator's stream state, and each such crashed probe
    restores both on the same machine and goes on from there.  A crash
    point past the schedule wraps to [c mod (length + 1)], which the
    run cannot know in advance; unless that index was captured for
    another crash point, its probe re-runs from boot on the same
    machine ({!Ido_vm.Vm.reset}), one more boot.  The outcome is the
    one from-boot probes ({!Ido_check.Engine.probe}) give, byte for
    byte: features, schedule, hints and failures, in the input's crash
    order, duplicates included.

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
  f_crash : int option;
      (** effective crash index of the first failing dynamic run;
          [None] for static findings and crash-free failures *)
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

val run : ?opt:bool -> Input.t -> outcome
(** Deterministic: same input (and [opt]), same outcome (features
    included). *)

val primary_code : outcome -> string option
(** The first failure code, the finding's identity for deduplication
    ([None] when the outcome is clean). *)
