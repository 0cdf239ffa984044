(** Obligated optimization sweep.

    Runs the persistence-redundancy optimizer ([Ido_opt]) over every
    supported scheme x workload pair and {e enforces} each rewrite's
    obligations before reporting its savings:

    + the optimized program re-lints clean;
    + it passes the full {!Engine.explore} crash matrix with identical
      oracles;
    + the crash-free durable image digest is unchanged;
    + the obs rollups reconcile: crash/recovery fields exactly, lock
      discipline (acquires = releases) in both runs, persist fields
      decreasing only within the applied rewrites' declared
      {!Ido_opt.Rewrite.delta_class} (evictions exempt).  Lock
      {e totals} are deliberately not compared — hand-over-hand
      traversals make them schedule-dependent, and a rewrite shifts
      the interleaving.

    Any divergence raises {!Ido_opt.Opt.Opt_violation} naming the
    applied rewrites — a rewrite that "saves" events by breaking
    recovery is a hard error, never a statistic.  The sweep is
    deterministic: byte-identical output at every [-j] and every
    [--chunk]. *)

open Ido_runtime
open Ido_obs

type cell = {
  o_scheme : Scheme.t;
  o_workload : string;
  o_rewrites : Ido_opt.Rewrite.t list;
  o_base : Obs.rollup;  (** crash-free base rollup over the worker phase *)
  o_opt : Obs.rollup;  (** same window, optimized program *)
  o_tested : int;  (** crash points injected on the optimized program *)
  o_total_events : int;  (** optimized persist-event schedule length *)
  o_exhaustive : bool;
}

val sweep :
  ?pool:Ido_util.Pool.t ->
  ?chunk:int ->
  ?schemes:Scheme.t list ->
  ?workloads:string list ->
  ?budget:int ->
  unit ->
  cell list

val render : cell list -> string
