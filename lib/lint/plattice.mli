(** The persist-order lattice.

    Every persistent word the simulated machine writes moves through
    three states: {e volatile-dirty} (the store sits in the cache
    overlay; an eviction may persist it at any time, a crash loses it),
    {e written-back} (a [clwb] moved the line into the persistence
    domain; in the simulator this is synchronous, on real hardware it
    is only ordered by the next fence), and {e fence-durable} (a
    persist fence completed; the word survives any crash and is ordered
    before everything after the fence).

    The linter tracks this state for a small set of named runtime
    metadata cells (log entries, publish words, the recovery pc) plus
    one summarized cell for the FASE's program data — mirroring the
    runtime, which tracks dirty data lines as a set and flushes them
    wholesale.  Joins at control-flow merges take the pointwise least
    durable state. *)

type pstate = Dirty | Written_back | Durable

val pstate_to_string : pstate -> string

module Smap : Map.S with type key = string

type t = {
  data : pstate;  (** summarized in-FASE program stores *)
  meta : pstate Smap.t;  (** named runtime metadata cells *)
}

val top : t
(** Everything durable — the state at FASE entry. *)

val join : t -> t -> t
val equal : t -> t -> bool

val get_meta : t -> string -> pstate
(** Cells never written are durable (they hold their initial,
    persisted contents). *)

val write_meta : t -> string -> t
(** A store: the cell becomes dirty. *)

val writeback_meta : t -> string -> t
(** [clwb]: dirty becomes written-back; other states keep. *)

val write_data : t -> t
val writeback_data : t -> t

val fence : t -> t
(** Every written-back cell (and data) becomes durable.  Dirty cells
    {e stay dirty}: a fence orders only initiated write-backs. *)
