(** Structured diagnostics shared by the validator ({!Validate}) and
    the static crash-consistency linter ([Ido_lint]).

    A diagnostic pins a finding to a function (and usually an
    instruction position) and carries a {e stable error code} — a short
    identifier like ["V106"] or ["L301"] that tests, mutation corpora
    and CI greps can match without depending on message wording. *)

open Ido_ir

type t = {
  func : string;  (** function the finding is in *)
  pos : Ir.pos option;  (** [None] for function- or program-level findings *)
  code : string;  (** stable error code, e.g. ["V106"], ["L301"] *)
  message : string;  (** human explanation, free to change wording *)
}

val v : ?pos:Ir.pos -> func:string -> code:string -> string -> t

val vf :
  ?pos:Ir.pos ->
  func:string ->
  code:string ->
  ('a, unit, string, t) format4 ->
  'a
(** [Printf]-style constructor. *)

val render : t -> string
(** ["func: [code] message at (b,i)"] — the canonical one-line form
    used by the CLI and by {!Validate.check_program_exn}. *)

val json : t -> string
(** One-line NDJSON object with the stable field order
    [func, pos, code, message]; [pos] is [[blk,idx]] or [null].
    Shared by [ido_check lint --json] and the optimizer's [O1xx]
    rewrite reports; byte stability is dune-rule-tested. *)

val compare : t -> t -> int
(** Order by function, position, code — the report order. *)
