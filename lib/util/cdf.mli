(** Integer-valued empirical distributions and their CDFs.

    Figure 8 of the paper reports cumulative dynamic distributions of
    stores per idempotent region and of live-in registers per region;
    this module is the collector behind those plots. *)

type t

val create : unit -> t

val add : ?weight:int -> t -> int -> unit
(** [add t v] records one (or [weight]) observation(s) of value [v].
    [v] must be non-negative. *)

val clear : t -> unit
(** Forget every observation, keeping the backing storage (arena-reuse
    reset path). *)

val copy : t -> t
(** An independent collector holding the same observations. *)

val assign : into:t -> t -> unit
(** [assign ~into src] makes [into] hold exactly [src]'s observations
    (a machine restored from a boot image takes its collectors back). *)

val total : t -> int
(** Number of observations recorded. *)

val cumulative : t -> int -> float
(** [cumulative t v] is the fraction of observations ≤ [v]
    (1.0 when the distribution is empty, matching a degenerate CDF). *)

val mean : t -> float

val points : t -> (int * float) list
(** CDF as a list of [(value, cumulative fraction)] for every value
    between 0 and the largest recorded value, inclusive. *)

val percentile : t -> float -> int
(** [percentile t p] is the smallest value v with [cumulative t v >= p].
    [p] must be in (0, 1].
    Exported as the inverse of {!cumulative}; no figure reads it yet. *)
