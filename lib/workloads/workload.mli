(** First-class registry of the benchmark workloads.

    A workload bundles everything a driver needs: the IR program (built
    lazily, since construction walks the builder), the memory-image
    oracle that validates it after a crash, and the request profile the
    serving layer uses to synthesise keyed request streams.  The CLIs,
    the crash engine and the serving layer all resolve workloads here,
    so the stringly by-name plumbing survives only as {!named}.

    Every program follows the {!Wcommon} conventions: entry points
    [init] / [worker(nops)] / [request(op, key, value)] / [check].
    [request] performs exactly one operation, dispatched on the dice
    [op] drawn in [\[0, 100)] by the caller. *)

type request_profile = {
  key_range : int;  (** Request keys are drawn in [\[0, key_range)]. *)
}

type t = {
  name : string;
  program : Ido_ir.Ir.program Lazy.t;
  oracle : Oracle.impl;
  request : request_profile;
  single_threaded : bool;
      (** One worker thread only (objstore: Redis has a single server
          thread, and the program takes no locks).  Drivers default to
          one worker, and the CLIs reject more ({!check_threads}). *)
}

val all : t list
(** The registry, in canonical order; {!names} and {!get} are derived
    from it. *)

val names : string list
(** Derived from {!all}: ["stack"; "queue"; "olist"; "olistrm";
    "hmap"; "kvcache50"; "kvcache10"; "objstore"; "mlog"]. *)

val find : string -> t option

val get : string -> t
(** @raise Invalid_argument for an unknown name; the message lists the
    valid names. *)

val program : t -> Ido_ir.Ir.program
(** Force the lazily built IR program. *)

val check_threads : t -> int -> unit
(** @raise Invalid_argument when a [single_threaded] workload is asked
    for more than one worker thread. *)

(** {1 Compatibility} *)

val named : string -> Ido_ir.Ir.program
(** [named n = program (get n)].
    @raise Invalid_argument for an unknown name. *)
