(** Forward abstract interpretation of one instrumented function.

    Walks the CFG to a fixpoint over a product state: the stack of
    held protection tokens (locks, durable regions, transactions), the
    armed-log-grant token of the scheme's per-store hook, and the
    {!Plattice} persistence state of the scheme's runtime metadata
    cells plus the summarized FASE data.  Hooks advance the lattice
    through their {!Hook_model} micro-op protocols; publish and check
    micro-ops emit diagnostics when a word would become recovery-visible
    before its prerequisites are durable.

    Codes emitted here:
    - [L101] inconsistent protection depth at a join
    - [L102] unlock without a matching held lock
    - [L103] unbalanced transaction / durable region
    - [L104] return while protection is still held
    - [L201] protected persistent store not covered by the scheme's
      log hook
    - [L202] orphaned log hook (grant not consumed by the next store)
    - [L203] log hook outside its protected context
    - [L204] hook foreign to the scheme
    - [L301] write-ahead violation at a publish point
    - [L302]/[L303] protocol obligations ([Check] micro-ops, unlock
      durability) *)

open Ido_ir
open Ido_analysis
open Ido_runtime

type access = {
  apos : Ir.pos;
  aloc : Alias.expr;  (** resolved address, never [Unknown]-based *)
  awrite : bool;
  alocks : Alias.expr list;  (** stable lock tokens held, outermost first *)
  aprotected : bool;  (** any protection token held *)
  apure : bool;  (** protection is exclusively stable locks *)
}

type result = {
  diags : Diag.t list;
  accesses : access list;  (** persistent-space loads and stores *)
  order_edges : (Alias.expr * Alias.expr * Ir.pos) list;
      (** [(held, acquired, at)] for stable lock pairs — the
          lock-order graph's edges *)
}

val analyze : ?variant:Protocol.fault -> Scheme.t -> Ir.func -> result
(** [variant] checks against the faulted protocol instead (see
    {!Hook_model.model}). *)
