(** Persistence models of the runtime hooks, recorded from the runtime.

    Each scheme's runtime executes a small fixed protocol per hook —
    stores to its log, write-backs, fences, and {e publish} writes that
    make logged state reachable to recovery (a JUSTDO [valid] flag, an
    UNDO ring's [head]/[total], iDO's [recovery_pc], a REDO commit
    status).  The linter interprets those protocols as sequences of
    {e micro-ops} over the {!Plattice} state, so the write-ahead
    discipline ("log durable before publish") is checked on every path
    of the instrumented program rather than only on explored schedules.

    The sequences are recorded, not written: {!model} runs the hook's
    {!Ido_runtime.Protocol} step once on a scratch memory, after the
    steps it depends on, and names each address its stores, write-backs
    and fences touch from the log module's layout.  Only the contract
    is hand-written: which stores publish and what must be durable
    before each, the L302 check at FASE exit, and the grant token.  A
    {!Ido_runtime.Protocol.fault} records that faulted protocol. *)

open Ido_ir
open Ido_runtime

(** How durable a prerequisite must be at a publish/check point. *)
type need =
  | Initiated  (** write-back issued: at least {!Plattice.Written_back} *)
  | Fenced  (** a fence completed: {!Plattice.Durable} *)

type req = Meta of string | Data

type micro =
  | Write of string  (** store to a named metadata cell *)
  | Write_data  (** a protocol store to program data (a redo or page apply) *)
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

val model : ?fault:Protocol.fault -> Scheme.t -> Ir.hook -> micro list
(** [model ?fault scheme] records the scheme's protocol (once per
    scheme and fault, on first use) and returns the micro-ops of each
    hook: [[]] for a hook the scheme does not place.  A region boundary
    is modelled by whether it sits at a release (as a boundary before
    an inner release, which stores the pc), a release by whether it is
    outermost. *)

val unlock_durable : Scheme.t -> string list
(** The runtime cells that must be fence-durable before an in-FASE
    [Unlock] executes (L303: no two threads' lock records may ever
    claim the same lock). *)

val placeable : Scheme.props -> Ir.hook -> bool
(** Can the scheme's instrumentation place this hook?  ([Hregion] and
    [Hlock_release] by kind, whatever their payload.) *)

val hooks : Ir.hook list
(** One hook per model {!model} tells apart, in a fixed order. *)
