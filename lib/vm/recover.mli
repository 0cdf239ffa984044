(** Post-crash recovery, dispatched on the machine's scheme
    (Sec. III-C for iDO; each baseline per its published algorithm).
    Driven through {!Vm.recover}. *)

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
(** Atlas's fixed recovery cost: process restart and log discovery. *)

val atlas_per_record_ns : Timebase.ns
(** Atlas's recovery cost per scanned UNDO record (happens-before graph
    and sort); Table I extrapolates longer kill times with it. *)

val recover : State.t -> stats
(** Run the scheme's recovery against the current persistent image;
    afterwards the region is marked clean and the machine accepts
    fresh work. *)
