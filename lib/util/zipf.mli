(** Power-law (Zipfian) key sampling.

    The paper's Redis client ([lru_test]) queries with a power-law key
    distribution over a fixed key range (Sec. V-A); this module provides
    that sampler.  Sampling uses the rejection-inversion method of
    Hörmann and Derflinger (1996), which is O(1) per sample and exact
    for the Zipf(s, n) distribution. *)

type t

val create : ?exponent:float -> int -> t
(** [create ~exponent n] prepares a sampler over ranks [\[0, n)].
    [exponent] defaults to 0.99 (a common "Zipfian" setting that avoids
    the harmonic-series degeneracy at exactly 1.0). *)

val sample : t -> Rng.t -> int
(** [sample t rng] draws a rank in [\[0, n)]; rank 0 is the most
    popular. *)

val pmf : t -> int -> float
(** [pmf t k] is the exact probability of rank [k] (for tests). *)
