(** Justification-carrying rewrite records.

    Every optimization the pass applies is recorded with a stable
    [O1xx] code and the CFG position it fired at — mirroring the
    linter's [L101]–[L503] table — so reports are grep-stable, the
    sweep output is byte-identical at every [-j], and a reconciliation
    failure can name the offending rewrite. *)

open Ido_ir

type t = { code : string; func : string; pos : Ir.pos; detail : string }

val v : code:string -> func:string -> pos:Ir.pos -> string -> t

val vf :
  code:string ->
  func:string ->
  pos:Ir.pos ->
  ('a, unit, string, t) format4 ->
  'a

val render : t -> string

val compare : t -> t -> int

val codes : (string * string) list
(** The [O1xx] rewrite catalogue with one-line explanations. *)

val delta_class : string -> string list
(** Obs-rollup fields this rewrite may decrease.  A field outside the
    union of the applied rewrites' classes must reconcile exactly
    between the base and optimized runs (evictions are globally
    exempt). *)
