(** Persist-trace coverage: the fuzzer's novelty signal.

    PMFuzz's observation (ASPLOS'21) is that the interesting state
    space of a persistent-memory program is the space of {e persist
    traces}, not branch edges: two runs that execute the same code but
    order their stores, write-backs and fences differently can differ
    exactly where crash-consistency bugs live.  The obs layer already
    emits that trace; this module folds it into a bounded feature set:

    - {b n-grams} — per-thread 2- and 3-grams of
      {!Ido_obs.Obs.coverage_point} codes, hashed into a fixed bucket
      space (local persist-order shapes);
    - {b boundary edges} — consecutive region-boundary ids per thread
      (which static regions executed back to back, and whether the
      boundary persist was elided);
    - {b FASE-transition edges} — consecutive FASE-level events
      (enter/exit/boundary/crash/recovery-step) per thread, the
      coarse recovery-path shape.

    All features are salted with the scheme name, so the same trace
    shape under two schemes counts as two behaviours ("per scheme" in
    the digest definition).  The seen-set accumulates buckets across
    the whole campaign; an input is {e novel} when it contributes at
    least one unseen bucket.

    Extraction is streamed: an {!acc} is fed one event at a time
    (typically from an {!Ido_obs.Obs.create} [~tap], so no event is
    ever buffered) and keeps only a few integers of state per thread
    plus a bitset over the 2^16-bucket space. *)

type acc
(** A feature accumulator: the bucket set of everything observed so
    far plus the per-thread stream state of the current run. *)

val acc : scheme:string -> acc
(** An empty accumulator whose features are salted with [scheme]. *)

val observe : acc -> Ido_obs.Obs.event -> unit
(** Feed the next event of the current run, in emission order. *)

val new_run : acc -> unit
(** Start another run: forget every thread's stream state but keep the
    buckets, so the accumulator collects the union of per-run feature
    sets (n-grams and edges never span two runs). *)

val collect : acc -> int array
(** The buckets accumulated so far, sorted and deduplicated. *)

val merge : acc -> int array -> unit
(** Add buckets (another run's {!collect}) to the accumulator's set,
    leaving the stream state alone. *)

val static_features :
  scheme:string -> codes:string list -> shape:string -> int array
(** Feature buckets for a statically-evaluated input (no trace): one
    bucket per diagnostic code plus one for the input's shape string,
    in the same bucket space as the trace features {!collect}
    returns. *)

val digest : int array -> string
(** Compact stable fingerprint of a feature set (["<hex>-<count>"]);
    the corpus key of a survivor. *)

type t
(** The campaign-wide seen-set (a bitset over the same bucket
    space). *)

val create : unit -> t
val buckets : t -> int
(** Distinct buckets seen so far. *)

val novel : t -> int array -> int
(** How many of these buckets are unseen (0 = nothing new). *)

val add : t -> int array -> unit
