(** Eraser-style lockset and lock-order checking over the per-function
    {!Transfer} results, restricted to thread entry points and the
    functions they reach.

    All comparisons are between {e stable} symbolic locations
    ({!Ido_analysis.Alias.is_stable}) — root slots, parameters, constants, allocation
    sites.  Hand-over-hand traversals guard per-node locks loaded from
    the structure; those resolve to unstable [Loaded] values and are
    deliberately left out: the discipline they follow is ordered by the
    data structure, not by a static total order.

    Codes:
    - [L501] unprotected write to a location that is elsewhere accessed
      under protection
    - [L502] the protected accesses of a location share no common lock
      (its candidate lockset is empty)
    - [L503] the static lock-order graph has a cycle (deadlock, which
      under lock-inferred failure atomicity is also a persistence
      hazard: neither FASE can retire) *)

open Ido_ir
open Ido_analysis

val check :
  Ir.program ->
  entries:string list ->
  results:(string * Transfer.result) list ->
  Diag.t list
(** [entries] are the thread entry functions; functions unreachable
    from them (initialization code that runs single-threaded) are not
    checked.  An empty [entries] list checks every function. *)
