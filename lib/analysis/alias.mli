(** BasicAA-style alias analysis and symbolic value resolution
    (Sec. IV-A-b).

    Values are resolved to [base + constant offset].  Resolution is
    {e per use}, through {!Reaching}: a register re-assigned elsewhere
    still resolves precisely at a use reached by a unique definition.
    Joins with several reaching definitions resolve to [Unknown].  The
    bases are

    - allocation sites ([alloca], [nv_alloc]), constants and
      parameters;
    - [Root k], the value of persistent root slot [k] ([root_get k]),
      the anchor every workload hangs its structure on;
    - [Loaded (e, off)], "the word loaded from [e + off]", chased
      through at most two levels of persistent loads, so per-node data
      reached through a descriptor still gets a name.

    Answers do not depend on the order of queries.  Two equal
    expressions denote the same location only under the linter's
    heuristic reading (loads at different times may observe different
    pointers).  {!may_alias} does not rely on it: like LLVM's basicAA
    it is deliberately conservative, and treats every base other than
    an allocation site, a constant or a parameter as unknown, which
    may-aliases anything. *)

open Ido_ir

type base =
  | Alloca of int  (** stack allocation site (block*2^20+idx) *)
  | Heap of int  (** [nv_alloc] site *)
  | Const of int64
  | Param of int
  | Root of int  (** value of persistent root slot [k] *)
  | Loaded of expr * int  (** value loaded from [expr + off] *)
  | Unknown

and expr = { base : base; delta : int }

type t

val compute : Cfg.t -> t

val resolve_operand : t -> at:Ir.pos -> Ir.operand -> expr
(** The symbolic value of [op] just before the instruction at [at]. *)

val resolve_store_addr : t -> Ir.pos -> expr option
(** Resolved address of the [Load]/[Store] at [pos]; [None] when the
    instruction is not a memory access. *)

val is_stable : expr -> bool
(** Bases that name the same thing on every execution of the program
    ([Root], [Param], [Const], allocation sites) — the expressions the
    lock-order and lockset-disjointness checks are allowed to compare.
    [Loaded]/[Unknown] values are excluded. *)

val equal : expr -> expr -> bool
val compare : expr -> expr -> int
val to_string : expr -> string

val may_alias : t -> Ir.pos -> Ir.pos -> bool
(** [may_alias t p q] — may the memory word accessed by the load/store
    at [p] be the word accessed by the one at [q]?  Positions must
    hold [Load]/[Store] instructions (or memory intrinsics, which are
    treated as unknown accesses of their space). *)
