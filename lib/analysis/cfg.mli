(** Control-flow-graph utilities for one {!Ido_ir.Ir.func}:
    predecessors, reverse postorder, dominators (Cooper–Harvey–Kennedy),
    back edges, loop headers and block-level reachability. *)

open Ido_ir

type t

val build : Ir.func -> t

val func : t -> Ir.func
val succs : t -> int -> int list
val preds : t -> int -> int list

val reverse_postorder : t -> int list
(** Reachable blocks only, entry first. *)

val reachable : t -> int -> bool
(** Reachable from the entry block. *)

val idom : t -> int -> int option
(** Immediate dominator; [None] for the entry or unreachable blocks.
    Exported as the primitive {!dominates} is built on. *)

val dominates : t -> int -> int -> bool
(** [dominates t a b]: does block [a] dominate block [b]? *)

val back_edges : t -> (int * int) list
(** Edges [(src, dst)] where [dst] dominates [src]. *)

val loop_headers : t -> int list
(** Targets of back edges, deduplicated, ascending. *)

val path_exists : t -> Ir.pos -> Ir.pos -> bool
(** [path_exists t p q]: can control flow from just after position [p]
    reach position [q]?  Same-block forward layout counts; otherwise a
    (possibly cyclic) block path from [p]'s block to [q]'s block must
    exist.  Answered on demand: the first query from a block runs one
    search from it, which later queries from that block reuse. *)
