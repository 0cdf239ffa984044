(** Shared experiment machinery: throughput runs ({!measure}),
    crash–recover–check runs ({!crash_check}), and the scale presets
    that size every figure. *)

open Ido_util
open Ido_ir
open Ido_runtime

(** How large to run the experiments.  [Quick] regenerates every
    figure's shape in a few minutes of host time; [Full] uses more
    operations and thread counts closer to the paper's 64-thread
    machine. *)
type scale = Quick | Full

val thread_counts : scale -> int list
(** Worker counts for the scalability sweeps. *)

val micro_total_ops : scale -> int
(** Total operations (divided among workers) per microbenchmark run. *)

val app_total_ops : scale -> int

module Spec = Spec
(** One experiment cell as a first-class value — see {!Spec.t}. *)

type run = {
  scheme : Scheme.t;
  mops : float;  (** throughput, millions of operations per second *)
  sim_ns : Timebase.ns;  (** simulated duration of the run *)
  ops : int;
  fences : int;
  clwbs : int;
}

type profile = {
  prun : run;  (** the basic throughput measurements *)
  rollup : Ido_obs.Obs.rollup;  (** aggregate event rollup of the run *)
  fases : int;  (** distinct dynamic FASEs observed *)
  consistency : (unit, string) result;
      (** {!Ido_obs.Obs.check} of the rollup against the pmem counter
          deltas of the measured window *)
}

val measure : ?program:Ir.program -> ?opt:bool -> Spec.t -> profile
(** The measurement entry point: initialise, make the setup durable,
    run [spec.threads] workers of [spec.ops] operations each to
    completion, and report.  With [spec.obs] set, an unbuffered
    {!Ido_obs.Obs} sink is attached over the measured window — per-
    event rollups (log bytes, boundaries, lock traffic, ...) at
    constant memory, reconciled against the pmem counters; without it
    the rollup is zero and [consistency] is trivially [Ok].

    [?program] substitutes a custom-parameterised program for the
    registry's (the figure sweeps size workloads beyond what the
    registry names); the spec's [workload] field is then only a
    label.  [?opt] runs the persistence-redundancy optimizer
    ([Ido_opt]) over the instrumented program before execution — the
    same pipeline [ido_check optimize] verifies. *)

type crash_report = {
  crashed_at : Timebase.ns;
  recovery : Ido_vm.Recover.stats;
  check_ok : bool;
  check_count : int;  (** the count observed by the [check] function *)
  undo_records : int;  (** UNDO records accumulated before the crash *)
}

val crash_check :
  ?program:Ir.program -> crash_at:Timebase.ns -> Spec.t -> crash_report
(** Run the spec's workers, power-fail at [crash_at] (simulated),
    recover, then run the workload's [check] function on the recovered
    heap. *)

val region_stats :
  ?seed:int ->
  threads:int ->
  total_ops:int ->
  Ir.program ->
  Cdf.t * Cdf.t
(** Run under iDO and return the Fig. 8 distributions:
    (stores per dynamic region, live-in registers per region). *)
