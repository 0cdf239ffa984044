(** The simulated multiprocessor: instruction execution, scheme hooks,
    the causally-ordered scheduler, and crash injection.  Use through
    the {!Vm} facade; {!Recover} reuses the scheduler to run resumed
    FASEs to completion. *)

open Ido_util
open Ido_ir

exception Vm_error of string
(** Runtime fault in the simulated program (bad address, foreign
    unlock, failed assertion, ...). *)

type run_outcome = [ `Idle | `Until | `Max_steps | `Deadlock ]

val create : State.config -> Ir.program -> State.t
(** Validate the (hook-free) program, instrument it for the configured
    scheme, and boot a machine with a freshly formatted persistent
    region. *)

val reset : State.t -> unit
(** Return the machine to the state {!create} left it in — same config,
    same program, RNG re-seeded, persistent region re-formatted,
    observers removed — while reusing every large allocation (the
    instrumented image, the materialised pmem pages, recycled tables).  Runs on
    a reset machine are byte-identical to runs on a fresh one; existing
    thread handles become invalid.  This is the arena-reuse path of the
    crash explorer. *)

val spawn : State.t -> fname:string -> args:int64 list -> State.thread
(** Start a thread at [fname]; it begins at the machine's current
    simulated time. *)

val run : ?until:Timebase.ns -> ?max_steps:int -> State.t -> run_outcome
(** Advance the simulation: always steps the earliest runnable thread,
    so cross-thread interactions happen in one causal order. *)

val step : State.t -> State.thread -> unit
(** Execute one instruction of the thread and advance its clock.
    Exported as the step the tests' linear-scan scheduler reference
    drives. *)

val reap : State.t -> unit
(** Drop [Done] threads from the scheduler table after raising the
    clock floor, so scheduling stays O(live threads) on machines that
    spawn one thread per unit of work (the serving layer). *)

val crash : State.t -> unit
(** Power failure: discard every volatile structure (cache overlay,
    DRAM, transient mutexes, threads).  On an NV-cache machine the
    cache contents are persistent and survive. *)

type crash_image
(** What a power failure keeps of a machine (see {!crash_image}). *)

val crash_image : State.t -> crash_image
(** The state {!crash} would leave now, copied out without changing the
    machine: the persistence domain, the pmem generator and counters,
    and the machine's generator, clock floor and id counters. *)

val restore_crashed : State.t -> crash_image -> unit
(** Put a machine built from the same config and program into the
    image's post-crash state, ready for recovery, reusing its large
    allocations as {!reset} does.  Observers are removed and the
    region-statistics collectors start empty. *)

type boot_image
(** An idle, flushed machine, volatile state included (see
    {!boot_image}). *)

val boot_image : State.t -> boot_image
(** The whole machine, copied out without changing it: its memory
    (which equals the persistence domain, the overlay being empty), the
    pmem generator and counters, DRAM, the lock and write-version
    tables, the finished threads, the region-statistics collectors and
    the machine's generator, clocks and id counters.
    @raise Invalid_argument unless every thread has finished and the
    overlay holds no dirty line and no pending write-back. *)

val restore_boot : State.t -> boot_image -> unit
(** Put a machine built from the same config and program into the
    image's state, reusing its large allocations as {!reset} does;
    observers are removed.  The image is only read, so one image may be
    restored any number of times, into any number of machines. *)
