(** The coverage-guided campaign driver ([ido_check fuzz]).

    A campaign is seeded with the clean workload/scheme pairs (and,
    outside rediscovery mode, a handful of random-CFG genomes), then
    alternates two stages under one execution budget:

    + a {b deterministic enumeration} stage — for every pair, in a
      fixed round-robin order: the buggy hook-model variants, the
      hoisted-store transform, every elidable/droppable required cut,
      and every hook deletion/duplication.  This is the systematic
      sweep of the single-edit bug space, and the workhorse of
      [--rediscover];
    + a {b havoc} stage — seeded random mutations of the live corpus
      (crash points reseeded near boundary hints, genome op
      splice/insert/delete, lock-scope perturbation, fresh genomes),
      keeping inputs whose coverage digest contributes unseen buckets.

    Every failing candidate is deduplicated by (scheme, base, code
    set), shrunk to a minimal reproducer ({!Shrink}), and recorded in
    the corpus.  The whole campaign is deterministic under its seed —
    byte-identical reports and corpora at any [-j] — because
    candidates are generated before each wave, evaluated in
    submission order, and merged serially. *)

open Ido_runtime

type config = {
  seed : int;
  budget : int;  (** candidate executions across both stages *)
  schemes : Scheme.t list;
  workloads : string list;
  rediscover : bool;
      (** seed from clean workloads only and report which mutation-
          corpus entries the campaign re-found unaided *)
  shrink_budget : int;  (** extra executions per finding *)
  opt : bool;
      (** fuzz the optimized pipeline: every candidate additionally
          runs through the persistence-redundancy optimizer *)
}

val default_config : config
(** Seed 1, budget 4000, every scheme but Origin (no recovery — every
    crash point would "fail"), every workload, shrink budget 200. *)

type finding = {
  fd_entry : Corpus.entry;  (** the shrunk reproducer *)
  fd_codes : string list;  (** codes at discovery (pre-shrink) *)
  fd_organic : bool;
      (** the unshrunk input carried no seeded bug — a repo defect *)
  fd_size : int * int;  (** input size before and after shrinking *)
  fd_runs : int;  (** executions the shrink spent *)
}

type report = {
  r_config : config;
  r_executions : int;  (** candidates evaluated (shrinking excluded) *)
  r_buckets : int;  (** distinct coverage buckets seen *)
  r_survivors : int;
  r_findings : finding list;  (** discovery order *)
  r_corpus : Corpus.t;  (** seeds, survivors and shrunk findings *)
  r_rediscovered : (string * bool) list;
      (** per mutation-corpus entry: re-found?  [[]] unless
          [rediscover] *)
}

val pairs_of : config -> (Scheme.t * string) list
(** The campaign's clean scheme/workload pairs: every supported pair of
    the configured schemes and workloads, Origin excluded (no recovery
    — every crash point would "fail"), workload-major.
    Exported as the pair list {!run} is built on. *)

val run : ?pool:Ido_util.Pool.t -> ?chunk:int -> config -> report
(** Byte-identical for a given config at every pool size and chunk
    size.  [chunk] batches consecutive candidate executions into one
    pool task ([0], the default: auto-size per wave, as
    {!Ido_util.Pool.map_chunks} does).
    @raise Invalid_argument when [budget] is below 1 ("budget must be
    >= 1 (got 0)"), [shrink_budget] or [chunk] below 0, or when the
    filter leaves nothing to fuzz: no failure-atomic scheme in
    [schemes], or, with [rediscover], no supported pair of [schemes]
    and [workloads]. *)

val organic : report -> finding list

val found_count : report -> int * int
(** (re-found, total) over [r_rediscovered]. *)

val render : report -> string
(** The canonical multi-line report — deterministic, no timings. *)
