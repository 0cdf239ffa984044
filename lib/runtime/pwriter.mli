(** Cost-accounting channel to persistent memory.

    Every runtime operation (log append, lock record, boundary persist)
    goes through a [Pwriter], which performs the accesses on the
    underlying {!Ido_nvm.Pmem} and accumulates their simulated cost
    under the machine's {!Ido_nvm.Latency} model.  Write-back pending
    counts are tracked per writer — i.e. per simulated hardware thread
    — so one thread's fence never pays for another's flushes. *)

open Ido_util
open Ido_nvm

type t = {
  pm : Pmem.t;
  lat : Latency.t;
  mutable cost : Timebase.ns;
      (** accumulated since the last {!take_cost}.  The VM's step path
          charges and drains it in place, which saves a call per
          charge; everything else goes through the functions below. *)
  mutable pending : int;  (** write-backs since this writer's last fence *)
  mutable seen : int array;  (** {!clwb_lines} scratch *)
}

val create : Pmem.t -> Latency.t -> t

val pmem : t -> Pmem.t
val latency : t -> Latency.t

val load : t -> Pmem.addr -> int64
val store : t -> Pmem.addr -> int64 -> unit

val store_int : t -> Pmem.addr -> int -> unit
(** {!store} of a word holding a native [int] (see
    {!Ido_nvm.Pmem.store_int}): the same cost, counters and events,
    with nothing boxed. *)

val load_into : t -> Pmem.addr -> Bytes.t -> int -> unit
(** {!load} into bytes [[off, off + 8)] of a register file held as
    bytes (see {!Ido_nvm.Pmem.load_into}). *)

val store_from : t -> Pmem.addr -> Bytes.t -> int -> unit
(** {!store} of the word in bytes [[off, off + 8)]. *)

val clwb : t -> Pmem.addr -> unit
(** Write back the line containing the address.  Issue cost and the
    pending count are charged only when the line was actually dirty —
    a clwb on a clean line is free (no write-back occurs). *)

val clwb_lines : t -> Pmem.addr list -> unit
(** Write back the distinct cache lines covering the given word
    addresses (persist coalescing, Sec. IV-B: one [clwb] per line). *)

val clwb_offsets : t -> base:Pmem.addr -> int list -> unit
(** [clwb_offsets t ~base xs] is [clwb_lines t (List.map ((+) base) xs)]
    without building the list. *)

val clwb2 : t -> Pmem.addr -> Pmem.addr -> unit
(** [clwb2 t a b] is [clwb_lines t [a; b]] without building a list:
    the same write-backs in the same first-occurrence line order. *)

val clwb3 : t -> Pmem.addr -> Pmem.addr -> Pmem.addr -> unit
(** [clwb_lines t [a; b; c]], likewise. *)

val fence : t -> unit
(** Persist fence; cost depends on this writer's pending write-backs. *)

val persist_store : t -> Pmem.addr -> int64 -> unit
(** [store]; [clwb]; [fence] — the common "persist one word now".
    The benchmark's micro-measurements call it. *)

val add_cost : t -> Timebase.ns -> unit
val take_cost : t -> Timebase.ns
(** Accumulated cost since the last [take_cost]; resets to zero. *)

val pending : t -> int
(** Exported as the coalescing probe of the runtime tests. *)
