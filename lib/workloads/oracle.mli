(** Pure reference models ("oracles") of the workload structures.

    Each workload in this directory maintains one persistent structure;
    the functions here re-derive that structure's invariants from a raw
    memory image, independently of the VM and of the workload's own
    [check] entry point.  The crash-point engine ([Ido_check]) calls
    [validate] on the persistence domain after every injected crash and
    recovery.

    Two strictness levels:

    - {b Atomic} — full structural integrity {e and} bookkeeping
      consistency (counters match reachable elements, payload checksums
      hold, hash-chain membership is correct).  This is what the
      instrumented schemes (iDO, Atlas, Mnemosyne, JUSTDO, NVML,
      NVThreads) guarantee after recovery from {e any} crash point.
    - {b Prefix} — only memory safety of the image: pointers are null
      or in-bounds and every chain walk terminates within a generous
      bound.  Torn, half-applied operations are accepted.  This is the
      honest bar for Origin, which persists nothing deliberately; its
      image after a crash is an arbitrary cache-eviction prefix of the
      run. *)

type mem = { load : int -> int64; size : int }
(** A read-only memory image.  [load] must be total on
    [\[0, size)]; the oracle never reads outside that interval. *)

type mode = Atomic | Prefix

val default_mode : Ido_runtime.Scheme.t -> mode
(** [Atomic] for a failure-atomic scheme ({!Ido_runtime.Scheme.props}),
    [Prefix] for Origin. *)

val mode_name : mode -> string
(** ["atomic"] or ["prefix"]: the spelling of [--oracle] and of trace
    headers. *)

val mode_of_name : string -> mode option
(** Inverse of {!mode_name}. *)

exception Bad of string
(** Raised (internally) by the structure checkers on the first violated
    invariant.  The driver-facing entry points {!check} /
    {!validate} / {!digest} catch it; it is exposed so custom impls can
    participate in the same protocol. *)

(** {1 First-class oracle implementations}

    One {!impl} per persistent structure.  The {!Workload.t} registry
    holds the impl for each workload, so drivers resolve an oracle by
    resolving the workload — the by-name dispatch below survives only
    as a compatibility layer. *)

type impl = {
  check : mode:mode -> mem -> int -> unit;
      (** [check ~mode mem desc] validates the structure at descriptor
          address [desc]; raises {!Bad} on the first violated
          invariant.  Bounded and total on arbitrary torn images. *)
  render : Buffer.t -> mem -> int -> unit;
      (** Append the canonical rendering of the structure's logical
          content (element sequences, counters) — the digest body used
          for cross-scheme differential comparison.  May raise
          {!Bad}. *)
}

val stack : impl
val queue : impl
val olist : impl  (** shared by [olist] and [olistrm] *)

val hmap : impl
val kvcache : impl  (** shared by [kvcache50] and [kvcache10] *)

val objstore : impl
val mlog : impl

val check : impl -> mode:mode -> root:int64 -> mem -> (unit, string) result
(** [check impl ~mode ~root mem] validates the structure hanging off
    root-slot value [root].  Never raises and never loops: walks are
    bounded and all loads are bounds-checked.  [Error msg] pinpoints
    the first violated invariant. *)

(** {1 By-name dispatch (compatibility)} *)

val known : string -> bool
(** Whether a workload name (from {!Workload.names}) has an oracle.
    All nine do. *)

val validate :
  workload:string -> mode:mode -> root:int64 -> mem -> (unit, string) result
(** By-name wrapper of {!check}.
    @raise Invalid_argument on an unknown workload name. *)

val digest : workload:string -> root:int64 -> mem -> string
(** By-name wrapper of {!render}.
    @raise Invalid_argument on an unknown workload name. *)
