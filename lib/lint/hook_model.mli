(** Persistence models of the runtime hooks.

    Each scheme's runtime executes a small fixed protocol per hook —
    stores to its log, write-backs, fences, and {e publish} writes that
    make logged state reachable to recovery (a JUSTDO [valid] flag, an
    UNDO ring's [head]/[total], iDO's [recovery_pc], a REDO commit
    status).  The linter interprets those protocols as sequences of
    {e micro-ops} over the {!Plattice} state, so the write-ahead
    discipline ("log durable before publish") is checked on every path
    of the instrumented program rather than only on explored schedules.

    The sequences mirror [Ido_vm.Interp]'s hook execution and the
    runtime log modules; a model that publishes before its prerequisite
    write-backs (or drops a fence) is exactly the class of bug the
    PR 1 crash matrix caught dynamically, and the named {!variants}
    re-seed those bugs for the mutation corpus. *)

open Ido_ir
open Ido_runtime

(** How durable a prerequisite must be at a publish/check point. *)
type need =
  | Initiated  (** write-back issued: at least {!Plattice.Written_back} *)
  | Fenced  (** a fence completed: {!Plattice.Durable} *)

type req = Meta of string | Data

type micro =
  | Write of string  (** store to a named metadata cell *)
  | Writeback of string
  | Writeback_data  (** flush all tracked in-FASE program stores *)
  | Fence
  | Publish of { target : string; needs : need; requires : req list }
      (** a store that makes state reachable to recovery; every
          requirement must already satisfy [needs] *)
  | Check of { needs : need; requires : req list; code : string; what : string }
      (** protocol obligation without a store (e.g. "FASE data durable
          at exit"), reported under [code] when violated *)
  | Grant_log  (** arm the per-store log token consumed by the next
                   tracked store *)

val model : ?variant:string -> Scheme.t -> Ir.hook -> micro list
(** The micro-op protocol the scheme's runtime performs for [hook].
    [variant] substitutes a named buggy protocol (see {!variants});
    unknown variant names leave the model unchanged. *)

val hook_name : Ir.hook -> string

val variants : (string * string) list
(** [(name, description)] of the buggy protocol variants, for the
    mutation corpus and [ido_check mutants]. *)
