(** Fault scenarios for a serving cell: ordered, deterministic fault
    events executed by [Serve.run_cell] with every recovery horizon
    charged to the serving clock.

    This generalizes the old single optional [?crash:Shard.crash_plan]
    into a first-class plan: one scenario can power-fail one group
    mid-batch ({!single_crash}), take out a correlated k-of-N set of
    primaries at one instant ({!storm} — the power-rail case), or
    destroy a warm replica ([Replica_loss]), in any combination.
    Every event is planned from the cell parameters and the per-group
    request counts alone — no stream is materialised — so scenarios
    scale to arbitrarily long streams and are byte-identical at every
    [-j] and [--chunk]. *)

type crash_plan = {
  shard : int;  (** which routing group's primary power-fails *)
  at_request : int;
      (** index {e within that group's sub-stream}: the crash hits the
          batch containing this request *)
  after_ns : int;  (** simulated ns into that batch *)
}

type event =
  | Crash of crash_plan
      (** power-fail one primary mid-batch, positioned by request
          index (the PR-5 crash plan, unchanged semantics) *)
  | Crash_at of { group : int; at_ns : int }
      (** power-fail one primary at a wall-clock instant — the storm
          building block; lands mid-batch if a batch spans [at_ns],
          on an idle machine otherwise *)
  | Replica_loss of { group : int; at_ns : int }
      (** destroy the group's most recently attached replica *)

type t = {
  label : string;  (** stable scenario name, part of the report key *)
  detect_ns : int;  (** failure-detection delay before promotion *)
  events : event list;
}

val none : t
(** The empty scenario (label ["none"]): fault-free serving. *)

val of_crash : crash_plan -> t
(** Wrap a bare crash plan (label ["crash1"]), for a crash placed by
    hand.
    Exported as the primitive {!single_crash} is built on. *)

val single_crash : Config.t -> t
(** The deterministic mid-stream single crash ({!of_crash} of one
    plan): group drawn from the seed (falling back to the busiest), the
    batch containing the middle request of its sub-stream, 400 ns in —
    the crash [ido_check serve-crash] reports. *)

val storm : ?k:int -> ?at_ns:int -> Config.t -> t
(** [storm ?k ?at_ns c]: a correlated crash storm — [k] distinct
    groups (default [max 1 (groups / 2)]) drawn from the seed all
    power-fail at wall instant [at_ns] (default mid-stream:
    [requests * period_ns / 2]).  Label ["storm<k>"]. *)

val validate : Config.t -> t -> unit
(** @raise Invalid_argument when an event names a group outside the
    cell's topology — surfaced by the CLIs as exit 2. *)
