(** Persistent per-thread log nodes.

    Every scheme keeps one log structure per thread, allocated from
    the persistent region and linked into a global list whose head is
    in the region header, exactly as in Fig. 3.  All nodes share a
    3-word prefix [next; tid; kind]; the payload after it is
    scheme-specific. *)

open Ido_nvm
open Ido_region

type overflow = { scheme : string; tid : int; log : string; capacity : int }
(** A fixed-capacity per-thread log structure ran out of [log] slots
    ([capacity] of them) while thread [tid] was mid-FASE under
    [scheme]. *)

exception Log_overflow of overflow
(** Raised by the scheme runtimes ({!Ido_log}/{!Justdo_log} lock
    arrays, {!Redo_log} write set, {!Page_log} page set) instead of
    aborting the process: drivers catch it and surface a structured
    {!Ido_analysis.Diag} diagnostic. *)

val overflow : scheme:string -> tid:int -> log:string -> capacity:int -> 'a
(** [raise (Log_overflow _)] with the given payload. *)

val kind_ido : int
val kind_justdo : int
val kind_atlas : int
val kind_redo : int
val kind_nvml : int
val kind_page : int

val push :
  Pwriter.t -> Region.t -> kind:int -> tid:int -> payload_words:int -> size_at:int ->
  size:int -> Pmem.addr
(** Allocate a node, initialise the prefix, persist it, link it as the
    new list head (persisted), then persist the payload's size word
    [size] at [addr + size_at].  Returns the node address; the payload
    starts at [addr + 3], after the prefix. *)

val rebind : Pwriter.t -> Pmem.addr -> tid:int -> clear:int list -> unit
(** Recycle a finished thread's log arena for a fresh spawn: store the
    new owner tid into the node's prefix and zero the payload words at
    the [clear] offsets, then write back their lines (each once) and
    fence — the scheme runtimes' [rebind] operations, one write-back +
    fence each. *)

val tid : Pmem.t -> Pmem.addr -> int
val kind : Pmem.t -> Pmem.addr -> int

val iter : Pmem.t -> Region.t -> (Pmem.addr -> unit) -> unit
(** Visit every node currently linked from the region's log head. *)
