(** Cell orchestration: plan the stream, fan the routing groups out
    over an optional domain pool, and merge their outcomes under a
    {!Fault.t} scenario.

    Groups are independent simulations over disjoint lazily-generated
    sub-streams ({!Gen.sub_stream}) — except a [Topology.Merge]'s hot
    and cold groups, which share one pool task (a {!Shard.run_unit}
    unit) because the cold lane rebinds to the hot station
    mid-stream.  The merge of outcomes is in group order regardless
    of completion order, so a cell's result is byte-identical at
    every [-j] and chunk size, under every scenario.  End to end the
    cell is constant-memory: no request array, no retained latency
    samples — per-group {!Lat.t} sketches merge bucket-wise into the
    cell sketch. *)

type cell = {
  config : Config.t;
  fault : Fault.t;  (** the scenario this cell ran under *)
  stats : Lat.stats;  (** sketch-derived stats over served requests *)
  makespan_ns : int;  (** max group busy horizon, simulated wall ns *)
  mops : float;  (** served / makespan, Mops/s *)
  shards : Shard.outcome list;  (** per-group detail, group order *)
  replayed : int;  (** requests re-executed on promoted replicas *)
  recovery_ns : int;  (** total in-place recovery time *)
  unavail_ns : int;  (** total unavailability across groups *)
  max_stall_ns : int;
      (** the largest single stall anywhere in the cell — what the
          SLA verdict compares against the p99 budget *)
  oracle : (unit, string) result;  (** first group oracle failure *)
  consistency : (unit, string) result;
      (** first group obs-reconciliation failure *)
}

val run_cell :
  ?pool:Ido_util.Pool.t ->
  ?chunk:int ->
  ?obs:bool ->
  ?fault:Fault.t ->
  Config.t ->
  cell
(** Serve one cell under [fault] (default {!Fault.none}).  [chunk]
    batches consecutive units into one pool task ([1], the default:
    one task per unit; [0]: auto-size).  The cell is byte-identical
    at every [-j] and chunk size.
    @raise Invalid_argument for a workload missing from the registry
    or a scenario naming a group outside the topology. *)

