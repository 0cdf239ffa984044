(** Dense program-counter encoding for an (instrumented) program.

    A recovery PC must survive in one persistent word (Fig. 3); this
    module numbers every instruction slot of every function densely,
    with 0 reserved for "no recovery pending".  Slot
    [index = Array.length instrs] denotes the block terminator. *)

open Ido_ir

type t

val build : Ir.program -> t

val pos_of_pc : t -> int -> string * Ir.pos
(** Inverse of {!pc}: the function name and position of a pc.
    @raise Invalid_argument for pc 0 or out of range. *)

(** {1 Resolved functions}

    Each function is resolved once at {!build}: its IR, the pc of each
    block's first slot, its region metadata by region id and the
    callee of each [Call].  An interpreter frame holds its function's
    entry, so the per-step lookups below are array indexings. *)

type entry

val entry : t -> string -> entry
(** @raise Invalid_argument when absent. *)

val name : entry -> string
val ir : entry -> Ir.func

val pc : entry -> blk:int -> idx:int -> int
(** The dense id (≥ 1) of position [{blk; idx}] of [e]'s function.
    @raise Invalid_argument for a position outside the function. *)

val callee : entry -> blk:int -> idx:int -> entry
(** The function called by the [Call] at [(blk, idx)].
    @raise Invalid_argument for a bad position, a slot holding no
    [Call], or a callee absent from the program. *)

(** {1 Region-boundary metadata}

    Register sets a boundary persist needs, precomputed once per static
    region at build time so the per-entry hot path does no sorting. *)

type region_meta = {
  n_live_in : int;  (** [List.length live_in] (Fig. 8 statistic) *)
  live_in_sorted : int array;  (** ascending, deduped *)
  first_regs : int list;
      (** [sort_uniq (live_in @ out_regs)] — the first-boundary log set *)
  out_sorted : int list;  (** [sort_uniq out_regs] *)
}

val region : entry -> int -> region_meta
(** Metadata of a region hook by its per-function [region_id].
    @raise Invalid_argument when absent. *)

val live_in_mem : region_meta -> int -> bool
(** Binary-search membership in the sorted live-in set. *)

val max_regs : t -> int
(** Largest [nregs] over all functions (sizes the intRF image). *)
