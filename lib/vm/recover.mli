(** Post-crash recovery (Sec. III-C for iDO; each baseline per its
    published algorithm): one driver that runs the recovery half of the
    machine's protocol record ({!Ido_runtime.Protocol.recovery}), never
    naming a scheme.  Driven through {!Vm.recover}. *)

open Ido_util
open Ido_runtime

type stats = {
  scheme : Scheme.t;
  fases_resumed : int;  (** interrupted FASEs run to completion *)
  records_scanned : int;  (** UNDO records traversed (Atlas / NVML) *)
  writes_undone : int;
  fases_rolled_back : int;
  pages_restored : int;  (** NVThreads page images applied *)
  txns_replayed : int;  (** Mnemosyne committed transactions re-applied *)
  simulated_time : Timebase.ns;
      (** modelled wall time of the whole recovery: process restart
          constants plus the executed recovery work (DESIGN.md §5) *)
}

val atlas_base_ns : Timebase.ns
(** The rollback schemes' fixed recovery cost, Atlas's included:
    process restart and log discovery. *)

val atlas_per_record_ns : Timebase.ns
(** {!Ido_runtime.Protocol.atlas_per_record_ns}: Atlas's recovery cost
    per scanned UNDO record; Table I extrapolates longer kill times with
    it. *)

val recover : State.t -> stats
(** Run the scheme's recovery against the current persistent image;
    afterwards the region is marked clean and the machine accepts
    fresh work. *)
