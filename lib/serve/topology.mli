(** Declarative shard map for a serving cell.

    A topology names the routing groups (key-hash partitions, one
    primary machine each), how many warm replicas back each primary,
    and whether the cell reshards itself mid-stream.  It replaces the
    bare [shards : int] the serve layer grew up with: the group count
    still drives {!Gen.shard_of} routing, but failover and live
    resharding need the whole map, not just its cardinality.

    Replicas apply the same deterministic sub-stream as their primary,
    one acknowledged batch behind it, so promoting one on a primary
    crash replays only the unacknowledged batch tail instead of
    running scheme recovery on the request critical path.

    Resharding is declared, not scheduled: [Split] cuts the
    Zipf-hottest group's key space in two halfway through its
    sub-stream (the half with more key mass keeps the warm machine);
    [Merge] retires the coldest group's machine mid-stream and routes
    its remaining requests to the hottest group's machine.  Both
    charge a deterministic migration pause to the serving clock. *)

type reshard =
  | Split  (** split the hottest group's key space mid-stream *)
  | Merge  (** merge the coldest group into the hottest mid-stream *)

type t = private {
  groups : int;  (** routing groups (primaries); drives key routing *)
  replicas : int;  (** warm replicas per group, 0 = unreplicated *)
  reshard : reshard option;
}

val static : int -> t
(** [static n]: n primary-only groups — the pre-elastic [shards : int].
    @raise Invalid_argument when [n < 1]. *)

val replicated : replicas:int -> int -> t
(** [replicated ~replicas n]: n groups, each backed by [replicas] warm
    standbys.  @raise Invalid_argument on negative counts. *)

val make : ?replicas:int -> ?reshard:reshard -> int -> t
(** General constructor; validates like the combinators above.
    Exported as the primitive the combinators are built on. *)

val name : t -> string
(** Compact stable name: ["s4"], ["s4r1"], ["s4sp"], ["s4r1mg"] —
    group count, optional replica count, optional reshard suffix.
    Static topologies keep the historical ["s<n>"] label, so reports
    over static maps are unchanged. *)

val of_name : string -> (t, string) result
(** Parse {!name}'s output (the CLI [--topologies] syntax).  The error
    is a one-line description of the expected grammar. *)

val detect_ns : int
(** Failure-detection delay charged before a replica promotion. *)

val migrate_ns : records:int -> int
(** Deterministic state-migration pause for a split or merge, as a
    function of the records handed over (40 simulated ns each). *)
