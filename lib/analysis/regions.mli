(** Idempotent region formation (Sec. IV-A-b).

    Regions are delimited by {e cuts}: a cut at position [(b, i)]
    places a region boundary immediately before instruction [i] of
    block [b].  The iDO instrumentation pass materialises each cut as
    a [Hregion] hook.

    Mandatory cuts: after every lock acquire and before every release
    inside a FASE (Sec. III-B), after [Durable_begin] / before
    [Durable_end], and at every in-FASE loop header (covering
    antidependences carried by back edges).  Remaining same-block
    forward WAR pairs are covered by a minimum set of extra cuts,
    chosen by the classic greedy interval point-cover — the "hitting
    set algorithm" of the paper, optimal for interval families.

    For every cut we compute the registers live into the opened region
    (the set the boundary must be able to restore) and the OutputSet of
    the closed region, [Def ∩ LiveOut] (Eq. 1), which bounds the
    persist cost of the boundary. *)

open Ido_ir

type cut = {
  pos : Ir.pos;
  id : int;  (** static region id, unique per function *)
  live_in : Ir.reg list;  (** registers live at the cut *)
  out_regs : Ir.reg list;
      (** registers defined since the previous cut (on any path) that
          are still live at this cut *)
  required : bool;
      (** separates a WAR pair (loop header, cross-block entry, or
          interval cover): the runtime must always persist it.  Cuts
          with [required = false] are lock-induced and may be elided
          while the closed region is clean. *)
  at_release : bool;  (** sits immediately before a lock release *)
}

type t = {
  cuts : cut list;  (** sorted by position *)
  n_war_pairs : int;
  n_mandatory : int;  (** cuts forced by locks / loops / cross-block WAR *)
  n_hitting : int;  (** extra cuts chosen by the interval cover *)
}

val compute : Cfg.t -> Fase.t -> Liveness.t -> Alias.t -> t
(** @raise Failure on an irreducible CFG (a retreating edge whose
    target does not dominate its source). *)

val verify_no_war_within_regions : Cfg.t -> Fase.t -> Alias.t -> t -> bool
(** Test oracle: no may-alias WAR pair survives without a cut between
    its load and its store (checked exhaustively over paths of bounded
    length). *)
