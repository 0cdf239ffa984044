(** Latency accounting in constant memory: an HDR-histogram-style
    log-bucketed quantile sketch, plus the exact nearest-rank
    reference it is tested against.

    The sketch keeps one integer counter per bucket — values below
    128 exactly, then 64 sub-buckets per power-of-two octave — about
    3.6k counters total regardless of how many samples are added.
    Any reported quantile is within relative error {!relative_error}
    (1/64, < 1.6%) of the exact nearest-rank value; [max_ns] is
    exact, and [mean_ns] is computed from an exact running sum.
    Sketches merge by bucket-wise addition, so per-shard sketches
    combine into the cell sketch without retaining samples. *)

type stats = {
  served : int;
  dropped : int;  (** requests lost to a mid-batch crash *)
  mean_ns : float;
  p50 : int;
  p95 : int;
  p99 : int;
  max_ns : int;
}

type t
(** The sketch.  Single-owner mutable state (per shard, then merged);
    ~3.6k words, independent of sample count. *)

val create : unit -> t

val add : t -> int -> unit
(** Record one latency (negative values clamp to 0). *)

val merge : into:t -> t -> unit
(** [merge ~into src] adds [src]'s samples to [into] (bucket-wise;
    exact — merging loses nothing over adding directly). *)

val percentile_sketch : t -> float -> int
(** Nearest-rank quantile from the buckets: the reported value [r]
    satisfies [exact <= r <= exact * (1 + relative_error)] where
    [exact] is {!percentile} of the same samples.  Exact whenever the
    rank falls in a unit bucket (values < 128) or on the observed
    maximum.  0 when empty.
    Exported as the primitive {!stats} is built on. *)

val relative_error : float
(** Worst-case relative over-report of {!percentile_sketch}: 1/64. *)

val stats : ?dropped:int -> t -> stats
(** Quantiles from the sketch, mean from the exact sum.  All zero
    when empty; exact at [count = 1]. *)

val percentile : int array -> float -> int
(** [percentile sorted q] on an {e ascending} array: nearest-rank,
    i.e. the element at index [ceil (q/100 * n) - 1] (clamped).
    0 on an empty array.  The reference for the sketch tests. *)

val of_latencies : ?dropped:int -> int array -> stats
(** Exact stats from retained samples (sorts a copy; input order does
    not matter).  Test/reference path — the serve pipeline itself
    never retains samples. *)

val json_fields : stats -> string
(** Stable JSON fragment (no braces). *)
