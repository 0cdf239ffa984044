(** Deterministic open-loop request generation, streamed per shard.

    Nothing is materialised: a {!plan} computes each shard's
    key-probability mass and request count in one O(key_range) pass,
    and each shard then pulls its requests lazily from a private
    {!stream} seeded by splitting the cell seed
    ({!Config.shard_seed}).  Arrivals are exponential interarrivals
    around [period_ns / mass] — the thinned Poisson process the shard
    would see if a single rate-[1/period_ns] stream were key-routed —
    and keys are drawn from the cell's key distribution conditioned
    on routing here.  Arrivals never depend on completions, and a
    shard's stream depends only on [(config, shard)], so shards run
    on a domain pool in any order with byte-identical output at every
    [-j] and chunk size, in constant memory. *)

type request = {
  id : int;  (** position in this shard's sub-stream *)
  arrival : int;  (** simulated ns *)
  key : int;
  dice : int;  (** op selector in [\[0, 100)] *)
  value : int;
  shard : int;  (** [shard_of key] — the stream that produced it *)
}

val shard_of : shards:int -> int -> int
(** Route a key: SplitMix64-mixed hash mod [shards].  Stable across
    runs and hosts; a given key always lands on the same shard.
    Exported as the routing primitive the plan and streams are built
    on. *)

val gap_of_u : mean:float -> float -> int
(** [gap_of_u ~mean u] inverts the exponential CDF at [u], in whole
    ns, at least 1.  The survival probability is clamped at [2^-53]
    so a boundary draw ([u = 1.0]) yields the largest legitimate
    finite gap ([mean * 53 ln 2], rounded) instead of the infinity
    that [log 0] would produce.  Exported as the arrival primitive the
    streams are built on. *)

type plan
(** Per-shard masses and request counts for one cell — the only
    whole-stream computation, O(key_range + shards log shards). *)

val plan : Config.t -> key_range:int -> plan
(** [key_range] comes from the workload's registry
    {!Ido_workloads.Workload.request_profile}.  Request counts are
    apportioned to shards by largest remainder over the exact
    key-probability masses, so expected load (hot shards included)
    matches key-routing a single global stream. *)

val shard_count : plan -> int -> int
(** Requests the shard's stream will yield.  Sums to
    [Config.requests] over all shards; 0 for a shard owning no
    keys. *)

type stream
(** One shard's lazy request iterator: O(1) state, single-owner
    (create it on the domain that consumes it). *)

val sub_stream : plan -> int -> stream
(** A fresh iterator over the shard's sub-stream, arrival-ordered,
    deterministic in [(config, shard)] alone. *)

val next : stream -> request option
(** Consume and return the next request ([None]: exhausted). *)

(** {1 Elastic-topology helpers} *)

val hottest : plan -> int
(** The group with the largest key-probability mass (under Zipfian
    skew, the one the hot keys hash to); ties break by index.  The
    group a [Topology.Split] cuts and a [Topology.Merge] grows. *)

val coldest : plan -> int
(** The smallest-mass group other than {!hottest} (ties by index; the
    sole group when there is only one).  The group a [Topology.Merge]
    retires. *)

val split_bit : int -> bool
(** Which half of a split a key lands in: a salted SplitMix64 bit,
    independent of the primary route, so a split cuts any group's key
    space roughly in half.  Stable across runs and hosts. *)

type split_info = {
  stay_mass : float;  (** key mass staying on the warm machine *)
  move_mass : float;  (** key mass migrating to the split child *)
}

val split_info : plan -> group:int -> split_info
(** Re-derive the plan's masses over the post-split map of [group]:
    one O(key_range) pass splitting the group's key mass by
    {!split_bit}. *)

val materialize : plan -> int -> request array
(** The shard's whole sub-stream as an array — the reference the
    streaming path is tested against; not used on the serve path. *)
