(** One experiment cell, as a first-class value.

    A spec names everything {!Exp.measure} and {!Exp.crash_check} need
    to boot a machine and run a workload: the scheme, the workload
    (resolved through the {!Ido_workloads.Workload} registry), the VM
    seed, the worker count and the per-thread operation count, plus
    the two non-serialisable knobs (latency model and observability).

    Its five serialisable fields are exactly the shared prefix of the
    [Ido_check] trace header, emitted by {!json_fields} and parsed
    back by {!of_json}, so a spec round-trips through a trace file. *)

open Ido_runtime

type t = {
  scheme : Scheme.t;
  workload : string;  (** a {!Ido_workloads.Workload.names} entry *)
  seed : int;  (** VM seed: fixes the op streams and the event schedule *)
  threads : int;
  ops : int;  (** operations {e per thread} *)
  latency : Ido_nvm.Latency.t option;  (** [None] = the default model *)
  obs : bool;
      (** attach an {!Ido_obs.Obs} sink over the measured window and
          reconcile its rollup against the pmem counters *)
}

val make :
  ?seed:int ->
  ?latency:Ido_nvm.Latency.t ->
  ?obs:bool ->
  scheme:Scheme.t ->
  workload:string ->
  threads:int ->
  ops:int ->
  unit ->
  t
(** Defaults: [seed 42], default latency, no observability.
    @raise Invalid_argument when [threads] or [ops] is below 1. *)

val check_positive : string -> int -> unit
(** [check_positive what n] raises [Invalid_argument "<what> must be
    >= 1 (got <n>)"] when [n < 1] — the shared guard of every
    spec-building entry point. *)

val workload : t -> Ido_workloads.Workload.t
(** @raise Invalid_argument for a name missing from the registry. *)

val program : t -> Ido_ir.Ir.program
(** The registry program for {!field-workload}, built on demand.
    @raise Invalid_argument for a name missing from the registry. *)

(** {1 JSON round-tripping} *)

val json_fields : t -> string
(** The serialisable fields as a JSON fragment (no braces):
    [{|"scheme":"ido","workload":"stack","seed":42,"threads":4,"ops":100|}].
    Field order and formatting are stable — trace files are compared
    byte for byte. *)

val of_json : fail:(string -> exn) -> string -> t
(** Parse the {!json_fields} fields back out of a JSON line (e.g. a
    trace header).  [latency]/[obs] take their defaults.  Raises
    [fail msg] on a missing or malformed field or an unknown
    scheme. *)

(** Minimal by-key field extraction for the flat single-line JSON this
    repository writes (trace headers/footers, serve reports).  Not a
    general JSON parser. *)
module Fields : sig
  val find : string -> key:string -> int option
  (** Position just past [,"key":], or [None]. *)

  val int : fail:(string -> exn) -> string -> key:string -> int
  val string : fail:(string -> exn) -> string -> key:string -> string
end
