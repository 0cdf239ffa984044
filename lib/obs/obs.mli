(** Persist-event observability: the machine's one event type, plus
    structured tracing and metrics.

    {!kind} is the only event type of the simulated machine: the
    persistence domain ({!Ido_nvm.Pmem}) raises the four memory kinds,
    the VM the rest, and every one flows through a single emit path
    that feeds the crash-injection hook ({!Ido_vm.Vm.set_event_hook},
    {!crash_point} kinds only) and then the sink.

    A sink ({!t}) receives one typed {!event} per observable action of
    the simulated machine — persistence traffic ({!Store}, {!Flush},
    {!Fence}, {!Evict}), scheme runtime activity ({!Log_append},
    {!Boundary}, {!Lock_acquire}, {!Lock_release}, {!Fase_enter},
    {!Fase_exit}) and failure handling ({!Crash}, {!Recovery_step}).
    Every event carries the issuing thread id and the global FASE id it
    executed under ([-1] outside any FASE / for machine-level events).

    The sink keeps a cheap rollup ({!total}) and the number of distinct
    FASE ids ({!fases}) incrementally; full event buffering is optional
    ([~buffer]) so long profiling runs pay only the counter updates, and
    a [~tap] callback can consume the stream as it is produced instead
    of buffering it.  The rollup is designed to be checked against
    {!Ido_nvm.Pmem.counters} deltas with {!check}: the VM emits
    exactly one [Store]/[Flush]/[Fence]/[Evict] per counted pmem
    action, so any disagreement indicates lost or duplicated events.
    {!Ido_vm.Vm.obs_check} runs that check over the window since the
    sink was installed.

    Emission is driven by {!Ido_vm.Vm.set_obs}; when no sink (and no
    injection hook) is installed the machine takes a [None]-check fast
    path and builds no event at all.

    Events serialise to NDJSON ({!event_to_ndjson}) — one object per
    line — which is the on-disk trace format of [ido_check trace] (see
    {!Ido_check.Trace}). *)

type kind =
  | Store of int  (** word address: a store entered the overlay *)
  | Flush of int
      (** word address: a [clwb] actually initiated a write-back (clwbs
          hitting clean lines are not persistence traffic and emit
          nothing) *)
  | Fence of int  (** persist fence; payload = write-backs drained *)
  | Evict of int  (** line base address evicted pseudo-randomly *)
  | Log_append of { log : string; bytes : int }
      (** a scheme runtime appended [bytes] of log payload to the named
          log ("undo", "redo", "justdo", "ido-lock", "intrf", "page") *)
  | Boundary of { region : int; elided : bool }
      (** an idempotent-region boundary executed; [elided] when the
          cross-boundary register set was empty so no persist happened *)
  | Lock_acquire of int  (** lock id *)
  | Lock_release of int  (** lock id *)
  | Fase_enter  (** thread entered the FASE given by the event's fase id *)
  | Fase_exit
  | Crash  (** power failure injected into the machine *)
  | Recovery_step of { scheme : string; what : string }
      (** one unit of post-crash recovery work (a resumed thread, an
          undone record, a replayed transaction, ...) *)

val crash_point : kind -> bool
(** The kinds a power failure can be injected before: [Store],
    [Flush], [Fence], [Evict], [Lock_acquire] and [Lock_release].  The
    crash-injection hook sees exactly these, in emission order; their
    sequence is the crash-point schedule of [Ido_check]. *)

val describe : kind -> string
(** A short human-readable rendering of a crash-point kind ("store
    @325", "clwb @328", "fence", "evict line@912", "lock 3", "unlock
    3") — the label of a crashed-before event in crash reports and
    schedules.  Other kinds render as
    their NDJSON [kind] label. *)

type event = { seq : int; tid : int; fase : int; kind : kind }
(** [seq] is the 0-based position in this sink's stream.  [tid] / [fase]
    are [-1] for machine-level events (crash, recovery, setup). *)

type rollup = {
  mutable stores : int;
  mutable flushes : int;
  mutable fences : int;
  mutable evictions : int;
  mutable log_appends : int;
  mutable log_bytes : int;
  mutable boundaries : int;
  mutable elided_boundaries : int;
  mutable lock_acquires : int;
  mutable lock_releases : int;
  mutable fase_enters : int;
  mutable fase_exits : int;
  mutable crashes : int;
  mutable recovery_steps : int;
}

val rollup_zero : unit -> rollup

type t

val create : ?buffer:bool -> ?tap:(event -> unit) -> unit -> t
(** Fresh sink.  [buffer] (default [true]) keeps the full event list
    for {!events} / {!event_to_ndjson}; with [~buffer:false] only the
    rollups are maintained (constant memory, for profiling).

    [tap], when given, is called once per event, in emission order,
    after the rollups are updated — the same sequence {!events} would
    buffer.  With [~buffer:false ~tap:f] the sink keeps no events and
    [f] consumes the stream as it is produced (the fuzzer's coverage
    and schedule extraction).  Like the sink itself, [f] must not
    raise. *)

val emit : t -> tid:int -> fase:int -> kind -> unit
val count : t -> int
(** Events emitted so far (equals the next event's [seq]). *)

val events : t -> event list
(** Buffered events in emission order; [[]] when [~buffer:false]. *)

val total : t -> rollup
(** The aggregate rollup (shared mutable record — copy to snapshot). *)

val fases : t -> int
(** Number of distinct FASE ids observed ([fase >= 0] only). *)

val check :
  ?prior:rollup ->
  t -> stores:int -> writebacks:int -> fences:int -> evictions:int ->
  (unit, string) result
(** Compare the rollup against externally-counted persistence traffic
    (deltas of {!Ido_nvm.Pmem.counters} over the observed window).
    [prior] (default: nothing) is the rollup of the window's earlier
    part, which another sink observed — the run prefix before a
    restored crash image ({!Ido_check.Engine.crashed_probes}); the two
    are counted as one.  [Error] describes the first mismatching
    counter. *)

(** {1 Coverage export} *)

val coverage_point : event -> int
(** A small deterministic feature code for the event — the digest
    export hook consumed by the fuzzer's coverage layer
    ([Ido_fuzz.Cov]): the kind's constructor class combined with a
    coarse payload class (log name, elided flag, bucketed fence drain,
    recovery-step class).  Word addresses are deliberately ignored so
    coverage reflects behaviour shape, not allocation layout.  Stable
    across runs and processes. *)

(** {1 NDJSON} *)

val json_escape : string -> string
(** Escape a string for inclusion inside a JSON string literal. *)

val event_to_ndjson : event -> string
(** One-line JSON object: [{"type":"event","seq":..,"tid":..,"fase":..,
    "kind":"store","addr":..}] with kind-specific payload fields. *)

val rollup_to_json : rollup -> string
(** JSON object literal (no trailing newline) with the rollup fields. *)
